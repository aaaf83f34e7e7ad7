package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/cas"
	"mathcloud/internal/client"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/matrixinv"
	"mathcloud/internal/ratmat"
	"mathcloud/internal/rest"
	"mathcloud/internal/workflow"
)

// hilbert: the Table 2 / §4 exact inversion.  One client inverts an order-96
// Hilbert matrix with matrixinv.InvertParallel over workflow.HTTPInvoker and
// a pool of four CAS services, as `experiments overhead` does.  No gateway,
// no journal.  The CAS services are deterministic, so a repeated matrix
// would be answered from their computation cache: each inversion instead
// inverts c·H for a fresh seeded prime c (see scalePrimes), so no request
// repeats.

const hilbertOrder = 96

func runHilbert(ctx context.Context, cfg *config, rep *report) error {
	return runWorkload(ctx, cfg, rep, setupHilbert)
}

type hilbert struct {
	c    *container.Container
	srv  *server
	uris []string
	inv  interface {
		workflow.Invoker
		workflow.Describer
	}
	base    *ratmat.Matrix // H
	baseInv *ratmat.Matrix // H⁻¹, closed form
	primes  []int64        // scale factors, in seeded order
	next    int
	last    int64 // the scale factor of the last inversion

	payload *transport // the traced invoker's HTTP transport
}

// The traced run deploys the CAS services over a wrapper of the same
// evaluator, so the adapter's busy time is a span.
const tracedEvalFunc = "fedbench.cas.eval"

var registerTracedEval = sync.OnceFunc(func() {
	cas.Register()
	eval, _ := adapter.LookupRequestFunc(cas.EvalFuncName)
	adapter.RegisterRequestFunc(tracedEvalFunc, func(ctx context.Context, req *adapter.Request) (*adapter.Result, error) {
		start := time.Now()
		adapterCalls.Add(1)
		res, err := eval(ctx, req)
		trc.adapterSpan(ctx, start)
		return res, err
	})
})

func setupHilbert(ctx context.Context, cfg *config, dir string, traced bool) (harness, error) {
	// The container platform.StartLocal builds for `experiments overhead`,
	// served on the benchmark's own listener so the traced run can wrap
	// its handler.
	c, err := container.New(container.Options{Workers: 16, Logger: quiet})
	if err != nil {
		return nil, err
	}
	h := &hilbert{c: c, primes: scalePrimes(rand.New(rand.NewPCG(cfg.seed, 1<<35)))}
	var hd http.Handler = c.Handler()
	if traced {
		hd = trc.handler(spanReplica, spanPayload, hd)
	}
	if h.srv, err = startServer(hd); err != nil {
		c.Close()
		return nil, err
	}
	c.SetBaseURL(h.srv.url)
	names, err := deployCAS(c, traced)
	if err != nil {
		h.close()
		return nil, err
	}
	for _, n := range names {
		h.uris = append(h.uris, c.ServiceURI(n))
	}
	if traced {
		h.payload = &transport{t: &trc, name: spanPayload, parent: spanWorkflow, base: rest.SharedTransport}
		h.inv = &tracedInvoker{t: &trc, inner: &workflow.HTTPInvoker{
			Client: &client.Client{HTTP: &http.Client{Transport: h.payload}},
		}}
	} else {
		h.inv = &workflow.HTTPInvoker{}
	}
	// Health: every service answers its description.
	for _, u := range h.uris {
		if _, err := h.inv.Describe(u); err != nil {
			h.close()
			return nil, fmt.Errorf("health: %w", err)
		}
	}
	h.base = ratmat.Hilbert(hilbertOrder)
	h.baseInv = ratmat.HilbertInverse(hilbertOrder)
	return h, nil
}

// deployCAS is cas.Deploy(c, "maxima", 4), over the span-recording wrapper
// of the evaluator when traced.
func deployCAS(c *container.Container, traced bool) ([]string, error) {
	if !traced {
		return cas.Deploy(c, "maxima", 4)
	}
	registerTracedEval()
	names := []string{"maxima", "maxima-2", "maxima-3", "maxima-4"}
	for _, n := range names {
		cfg := cas.ServiceConfig(n)
		cfg.Adapter.Config, _ = json.Marshal(adapter.NativeConfig{Function: tracedEvalFunc})
		if err := c.Deploy(cfg); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// scalePrimes lists the primes between 2^10 and 2^11 in a seeded order.
// Each is coprime to every Hilbert denominator of order 96, so c·H is
// reduced like H, every intermediate is H's times a power of c, and the
// work differs from H's only by eleven bits per number.
func scalePrimes(rng *rand.Rand) []int64 {
	var ps []int64
	for c := int64(1 << 10); c < 1<<11; c++ {
		if big.NewInt(c).ProbablyPrime(0) {
			ps = append(ps, c)
		}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// nextScale returns the next scale factor; no factor repeats in a run.
func (h *hilbert) nextScale() (int64, error) {
	if h.next == len(h.primes) {
		return 0, fmt.Errorf("run needs more than %d distinct inversions", len(h.primes))
	}
	h.next++
	return h.primes[h.next-1], nil
}

// scaled returns c·H and its closed-form inverse H⁻¹/c.
func (h *hilbert) scaled(c int64) (m, inv *ratmat.Matrix) {
	return h.base.Scale(big.NewRat(c, 1)), h.baseInv.Scale(big.NewRat(1, c))
}

func (h *hilbert) measure(ctx context.Context, d time.Duration) (*loopResult, error) {
	lr := &loopResult{jobs: &jobTimes{}}
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		// Each inversion starts from the same state: the previous one's
		// jobs, files and memo entries are gone and the heap is collected.
		h.cleanup(lr.jobs)
		runtime.GC()
		c, err := h.nextScale()
		if err != nil {
			return nil, err
		}
		m, want := h.scaled(c)
		_, _, files0, _ := h.c.Files().Stats()
		cpu0 := cpuTime()
		t0 := time.Now()
		got, err := matrixinv.InvertParallel(ctx, h.inv, h.inv, h.uris, m)
		t1 := time.Now()
		cpu := cpuTime() - cpu0
		_, _, files1, _ := h.c.Files().Stats()
		lr.fileBytes += files1 - files0
		if err == nil && !got.Equal(want) {
			err = fmt.Errorf("%w: inverse differs from the closed-form Hilbert inverse", errWrong)
		}
		lr.record(err)
		if err != nil {
			continue
		}
		h.last = c
		lr.lat = append(lr.lat, t1.Sub(t0))
		lr.units++
		lr.windows = append(lr.windows, window{dur: t1.Sub(t0), cpu: cpu, units: 1})
	}
	h.cleanup(lr.jobs)
	return lr, nil
}

// cleanup deletes every job the inversions left on the container, which
// also frees their files and memo entries, after adding the timelines of
// the measured calls to jt.
func (h *hilbert) cleanup(jt *jobTimes) {
	jm := h.c.Jobs()
	for _, j := range jm.List("") {
		if strings.HasPrefix(j.TraceID, timedPrefix) {
			jt.add(j)
		}
		_, _ = jm.Delete(j.ID)
	}
}

// inProcess inverts the last measured matrix with the same block algorithm
// over ratmat.LocalOps, recording every intermediate, and checks the
// result against the closed form the services' answer already matched.
func (h *hilbert) inProcess(ctx context.Context) (time.Duration, []*ratmat.Matrix, error) {
	if h.last == 0 {
		return 0, nil, fmt.Errorf("no inversion completed")
	}
	m, want := h.scaled(h.last)
	ops := &recordingOps{}
	start := time.Now()
	got, err := ratmat.BlockInverse(ctx, ops, m, hilbertOrder/2)
	elapsed := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if !got.Equal(want) {
		return 0, nil, fmt.Errorf("%w: in-process inverse differs from the services' inverse", errWrong)
	}
	return elapsed, ops.seen, nil
}

// recordingOps is ratmat.LocalOps keeping every operand and result.
type recordingOps struct {
	local ratmat.LocalOps
	mu    sync.Mutex
	seen  []*ratmat.Matrix
}

func (r *recordingOps) keep(ms ...*ratmat.Matrix) {
	r.mu.Lock()
	r.seen = append(r.seen, ms...)
	r.mu.Unlock()
}

func (r *recordingOps) Inverse(ctx context.Context, m *ratmat.Matrix) (*ratmat.Matrix, error) {
	out, err := r.local.Inverse(ctx, m)
	r.keep(m, out)
	return out, err
}

func (r *recordingOps) Mul(ctx context.Context, a, b *ratmat.Matrix) (*ratmat.Matrix, error) {
	out, err := r.local.Mul(ctx, a, b)
	r.keep(a, b, out)
	return out, err
}

func (r *recordingOps) Sub(ctx context.Context, a, b *ratmat.Matrix) (*ratmat.Matrix, error) {
	out, err := r.local.Sub(ctx, a, b)
	r.keep(a, b, out)
	return out, err
}

func (r *recordingOps) Add(ctx context.Context, a, b *ratmat.Matrix) (*ratmat.Matrix, error) {
	out, err := r.local.Add(ctx, a, b)
	r.keep(a, b, out)
	return out, err
}

func (r *recordingOps) Neg(ctx context.Context, m *ratmat.Matrix) (*ratmat.Matrix, error) {
	out, err := r.local.Neg(ctx, m)
	r.keep(m, out)
	return out, err
}

// codecTimes times the JSON value codec (ToJSON plus encoding/json, and
// back) and the text codec over the given matrices.
func codecTimes(ms []*ratmat.Matrix) (jsonEnc, jsonDec, textEnc, textDec time.Duration, err error) {
	for _, m := range ms {
		if m == nil {
			continue
		}
		t := time.Now()
		data, err := json.Marshal(m.ToJSON())
		jsonEnc += time.Since(t)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t = time.Now()
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return 0, 0, 0, 0, err
		}
		back, err := ratmat.FromJSON(v)
		jsonDec += time.Since(t)
		if err != nil || !back.Equal(m) {
			return 0, 0, 0, 0, fmt.Errorf("json round trip: %v", err)
		}
		var buf bytes.Buffer
		t = time.Now()
		err = m.WriteText(&buf)
		textEnc += time.Since(t)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t = time.Now()
		back, err = ratmat.ReadText(&buf)
		textDec += time.Since(t)
		if err != nil || !back.Equal(m) {
			return 0, 0, 0, 0, fmt.Errorf("text round trip: %v", err)
		}
	}
	return jsonEnc, jsonDec, textEnc, textDec, nil
}

// finish checks the services' inverse against the in-process one; that
// inversion runs after the measured phase so it cannot disturb it.
func (h *hilbert) finish(ctx context.Context, rep *report, _ *loopResult) error {
	if _, _, err := h.inProcess(ctx); err != nil {
		rep.wrongf("%v", err)
	}
	return nil
}

func (h *hilbert) layers(ctx context.Context, rep *report, tp *tracedPhase) error {
	inversions := tp.lr.units
	ls := tp.ls
	calls := ls.count[spanWorkflow]
	rep.set("workflow.calls_per_op", perOp(float64(calls), inversions))
	rep.set("workflow.call_ms", perOp(ms(ls.dur[spanWorkflow]), calls))
	rep.set("workflow.hop_ms", perOp(ms(ls.dur[spanWorkflow]-ls.dur[spanReplica]), calls))
	rep.set("payload.bytes_per_op", perOp(float64(ls.bytes[spanPayload]), inversions))
	rep.set("filestore.file_bytes_per_op", perOp(float64(tp.lr.fileBytes), inversions))
	rep.set("container.resp_bytes_per_op", perOp(float64(ls.bytes[spanReplica]), inversions))

	jt := tp.lr.jobs
	rep.set("container.self_us", perOp(us(ls.dur[spanReplica]-jt.queueWait-jt.run), inversions))
	rep.set("jobmanager.queue_wait_us", perOp(us(jt.queueWait), jt.jobs))
	rep.set("jobmanager.run_self_us", runSelf(jt, ls))
	journalPerJob(rep, tp, jt.jobs)
	adapterPerOp(rep, tp, inversions)

	inproc, seen, err := h.inProcess(ctx)
	if err != nil {
		rep.wrongf("%v", err)
		return nil
	}
	rep.set("ratmat.inprocess_s", inproc.Seconds())
	platform := medianDur(tp.plain.lat).Seconds()
	rep.set("hilbert.overhead_pct", 100*(platform-inproc.Seconds())/platform)
	je, jd, te, td, err := codecTimes(seen)
	if err != nil {
		return err
	}
	rep.set("ratmat.json_encode_ms", ms(je))
	rep.set("ratmat.json_decode_ms", ms(jd))
	rep.set("ratmat.text_encode_ms", ms(te))
	rep.set("ratmat.text_decode_ms", ms(td))
	rep.note("codec timings cover the %d operands and results of one in-process inversion", len(seen))
	return nil
}

func (h *hilbert) sample() (core.ServiceDescription, []core.Values) {
	m, _ := h.scaled(h.primes[len(h.primes)-1])
	desc := cas.ServiceConfig("maxima").Description
	return desc, []core.Values{{"expr": "invert(A)", "A": m.ToJSON()}}
}

func (h *hilbert) metricsURL() string { return h.srv.url }

func (h *hilbert) close() {
	if h.srv != nil {
		h.srv.close()
	}
	h.c.Close()
}
