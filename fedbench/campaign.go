package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"mathcloud/internal/client"
	"mathcloud/internal/core"
	"mathcloud/internal/events"
	"mathcloud/internal/obs"
)

// campaign: each client POSTs one sweep of width 4096 through the gateway
// and follows it over the gateway's SSE stream until the terminal event.
// Half of every sweep's points are a hot set prewarmed on both replicas,
// half are new to the run, so the memo hit ratio holds near one half.  The
// sweeps are verified and deleted between rounds, outside the timing.

const campaignWidth = 4096

func runCampaign(ctx context.Context, cfg *config, rep *report) error {
	return runWorkload(ctx, cfg, rep, setupCampaign)
}

type campaign struct {
	f       *federation
	clients int
	svc     *client.Service
	hot     []core.Values
	rng     *rand.Rand
	nextNew float64 // the next new point's x: strictly increasing, never in the hot set
	runs    int
}

// sweepTotals sums one phase's per-sweep observations.
type sweepTotals struct {
	n         int
	submit    time.Duration // POST to 201
	drain     time.Duration // 201 to the last child's finish
	lag       time.Duration // last child's finish to the terminal event
	frames    int
	samePlace int // rounds whose sweeps landed on one replica
}

func setupCampaign(ctx context.Context, cfg *config, dir string, traced bool) (harness, error) {
	f, err := newFederation(ctx, dir, traced, campService)
	if err != nil {
		return nil, err
	}
	h := &campaign{f: f, clients: sweepClients(), rng: rand.New(rand.NewPCG(cfg.seed, 1<<34))}
	hc := newHTTPClient(h.clients)
	h.svc = (&client.Client{HTTP: hc}).Service(f.serviceURL("camp"))
	seen := make(map[float64]bool, campaignWidth/2)
	for len(h.hot) < campaignWidth/2 {
		x := float64(h.rng.IntN(1 << 31))
		if !seen[x] {
			seen[x] = true
			h.hot = append(h.hot, core.Values{"x": x})
		}
	}
	h.nextNew = float64(1<<32 + h.rng.IntN(1<<20)<<12)
	// Prewarm the hot set on both replicas, straight into each job manager.
	for _, r := range f.reps {
		jm := r.c.Jobs()
		sw, err := jm.SubmitSweep(ctx, "camp", &core.SweepSpec{Points: h.hot}, "")
		if err == nil {
			sw, err = jm.WaitSweep(ctx, sw.ID, time.Minute)
		}
		if err == nil && sw.Counts.Done != len(h.hot) {
			err = fmt.Errorf("ended %s with %+v", sw.State, sw.Counts)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("prewarm on %s: %w", r.name, err)
		}
	}
	f.gw.RefreshLoad(ctx)
	return h, nil
}

// points builds one sweep: the whole hot set plus as many new points, in a
// seeded order.
func (h *campaign) points() []core.Values {
	pts := make([]core.Values, 0, campaignWidth)
	pts = append(pts, h.hot...)
	for len(pts) < campaignWidth {
		pts = append(pts, core.Values{"x": h.nextNew})
		h.nextNew++
	}
	h.rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// sweepRun is one client's sweep in a round.
type sweepRun struct {
	points            []core.Values
	sweep             *core.Sweep
	start, created    time.Time // POST sent, 201 received
	terminal          time.Time // terminal event received
	frames, terminals int
	err               error
}

// watch POSTs the sweep and follows its event stream until the final
// event, counting frames and terminal states on the way.
func (h *campaign) watch(ctx context.Context, sr *sweepRun, reqID string) {
	ctx = obs.WithRequestID(ctx, reqID)
	sr.start = time.Now()
	sw, err := h.svc.SubmitSweep(ctx, &core.SweepSpec{Points: sr.points}, 0)
	if err != nil {
		sr.err = err
		return
	}
	sr.created = time.Now()
	sr.sweep = sw
	sr.err = h.svc.Events(ctx, sw.URI, func(ev events.Event) (bool, error) {
		sr.frames++
		if ev.Type != events.TypeSweep || len(ev.Data) == 0 {
			return false, nil
		}
		var s core.Sweep
		if err := json.Unmarshal(ev.Data, &s); err != nil {
			return false, err
		}
		if s.State.Terminal() {
			sr.terminals++
			sr.terminal = time.Now()
			sr.sweep = &s
		}
		return ev.End, nil
	})
	if sr.err == nil && sr.terminals == 0 {
		sr.err = fmt.Errorf("sweep %s: stream ended without a terminal event", sw.ID)
	}
}

// verify checks one finished sweep: aggregate counts, every child's state
// and output, exactly one terminal event; then deletes it.  It returns the
// children for the traced timings.
func (h *campaign) verify(ctx context.Context, sr *sweepRun) ([]*core.Job, error) {
	ctx = obs.WithRequestID(ctx, fmt.Sprintf("fbv-%s", sr.sweep.ID))
	defer func() { _, _ = h.svc.CancelSweep(ctx, sr.sweep.URI) }()
	if sr.terminals != 1 {
		return nil, fmt.Errorf("%w: sweep %s: watcher saw %d terminal events", errWrong, sr.sweep.ID, sr.terminals)
	}
	agg, err := h.svc.Sweep(ctx, sr.sweep.URI)
	if err != nil {
		return nil, err
	}
	c := agg.Counts
	if agg.Width != campaignWidth || c.Waiting+c.Running+c.Done+c.Error+c.Cancelled != campaignWidth || c.Done != campaignWidth {
		return nil, fmt.Errorf("%w: sweep %s: width %d counts %+v", errWrong, agg.ID, agg.Width, c)
	}
	jobs, err := sweepChildren(ctx, h.svc, sr.sweep.URI, campaignWidth)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		x, _ := sr.points[i]["x"].(float64)
		y, _ := j.Outputs["y"].(float64)
		if j.State != core.StateDone || y != campSpin(x) {
			return nil, fmt.Errorf("%w: sweep %s child %d (%s): %s y=%v want %v", errWrong, agg.ID, i, j.ID, j.State, j.Outputs["y"], campSpin(x))
		}
	}
	if _, done, err := h.svc.SweepJobs(ctx, sr.sweep.URI, core.StateDone, 1, 0); err != nil || done != c.Done {
		return nil, fmt.Errorf("%w: sweep %s: %d DONE children listed, counts say %d (%v)", errWrong, agg.ID, done, c.Done, err)
	}
	return jobs, nil
}

// sweepChildren pages through all children of a sweep in point order.
func sweepChildren(ctx context.Context, svc *client.Service, uri string, width int) ([]*core.Job, error) {
	const page = 1024
	var out []*core.Job
	for off := 0; off < width; off += page {
		jobs, total, err := svc.SweepJobs(ctx, uri, "", page, off)
		if err != nil {
			return nil, err
		}
		if total != width {
			return nil, fmt.Errorf("sweep %s lists %d children, want %d", uri, total, width)
		}
		out = append(out, jobs...)
	}
	if len(out) != width {
		return nil, fmt.Errorf("sweep %s paged %d children, want %d", uri, len(out), width)
	}
	return out, nil
}

func (h *campaign) measure(ctx context.Context, d time.Duration) (*loopResult, error) {
	h.runs++
	lr := &loopResult{jobs: &jobTimes{}}
	start := time.Now()
	for round := 0; time.Since(start) < d && ctx.Err() == nil; round++ {
		runs := make([]sweepRun, h.clients)
		for c := range runs {
			runs[c].points = h.points()
		}
		// Each round starts from an idle federation whose load view the
		// gateway has just refreshed, so placement sees equal queues and
		// spreads the two sweeps over the two replicas.
		h.f.gw.RefreshLoad(ctx)
		// The previous round's verification left garbage behind; collect
		// it now so its cost does not land inside this round's timing.
		runtime.GC()
		cpu0 := cpuTime()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range runs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				h.watch(ctx, &runs[c], fmt.Sprintf("%s%d-%d-%d", timedPrefix, h.runs, round, c))
			}(c)
		}
		wg.Wait()
		t1 := time.Now()
		cpu := cpuTime() - cpu0
		ok := true
		for c := range runs {
			sr := &runs[c]
			lr.attempted++
			if sr.err != nil {
				lr.checkFailed(sr.err)
				ok = false
				if sr.sweep != nil {
					_, _ = h.svc.CancelSweep(ctx, sr.sweep.URI)
				}
				continue
			}
			jobs, err := h.verify(ctx, sr)
			if err != nil {
				lr.checkFailed(err)
				ok = false
				continue
			}
			lr.lat = append(lr.lat, sr.terminal.Sub(sr.start))
			lr.units += campaignWidth
			observe(lr, sr, jobs)
		}
		if ok {
			lr.windows = append(lr.windows, window{dur: t1.Sub(t0), cpu: cpu, units: len(runs) * campaignWidth})
		}
		if len(runs) == 2 && runs[0].sweep != nil && runs[1].sweep != nil {
			r0, _ := core.SplitReplicaID(runs[0].sweep.ID)
			r1, _ := core.SplitReplicaID(runs[1].sweep.ID)
			if r0 == r1 {
				lr.sweeps.samePlace++
			}
		}
	}
	return lr, nil
}

// observe adds one verified sweep's layer timings to the phase.
func observe(lr *loopResult, sr *sweepRun, jobs []*core.Job) {
	var last time.Time
	for _, j := range jobs {
		if j.RunTime > 0 {
			lr.jobs.add(j)
		}
		if j.Finished.After(last) {
			last = j.Finished
		}
	}
	st := &lr.sweeps
	st.n++
	st.frames += sr.frames
	st.submit += sr.created.Sub(sr.start)
	st.drain += last.Sub(sr.created)
	st.lag += sr.terminal.Sub(last)
}

func (h *campaign) finish(_ context.Context, rep *report, lr *loopResult) error {
	rep.note("rounds with both sweeps on one replica=%d", lr.sweeps.samePlace)
	return nil
}

func (h *campaign) layers(_ context.Context, rep *report, tp *tracedPhase) error {
	st, jt := tp.lr.sweeps, tp.lr.jobs
	sweeps, children := st.n, tp.lr.units
	ls := tp.ls
	rep.set("gateway.self_us", perOp(us(ls.self(spanGateway)), sweeps))
	rep.set("gateway.hop_us", perOp(us(ls.self(spanUpstream)), sweeps))
	rep.set("gateway.upstream_per_op", perOp(float64(ls.count[spanUpstream]), sweeps))
	rep.set("container.self_us", perOp(us(ls.dur[spanReplica]), sweeps))
	rep.set("container.resp_bytes_per_op", perOp(float64(ls.bytes[spanReplica]), sweeps))
	rep.set("jobmanager.queue_wait_us", perOp(us(jt.queueWait), jt.jobs))
	rep.set("jobmanager.run_self_us", runSelf(jt, ls))
	rep.set("sweep.submit_ms", perOp(ms(st.submit), sweeps))
	rep.set("sweep.drain_ms", perOp(ms(st.drain), sweeps))
	rep.set("events.terminal_lag_ms", perOp(ms(st.lag), sweeps))
	rep.set("events.frames_per_campaign", perOp(float64(st.frames), sweeps))
	journalPerJob(rep, tp, children)
	adapterPerOp(rep, tp, children)
	rep.note("per-sweep metrics are means over %d traced sweeps; per-job metrics over %d children; rounds with both sweeps on one replica=%d", sweeps, children, st.samePlace)
	return nil
}

func (h *campaign) sample() (core.ServiceDescription, []core.Values) {
	return campService.Description, h.hot[:256]
}

func (h *campaign) metricsURL() string { return h.f.reps[0].srv.url }

func (h *campaign) close() { h.f.close() }
