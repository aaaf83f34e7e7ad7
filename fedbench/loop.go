package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
)

// setupReps is how often each measuring process of a trace-off run builds
// its stack; setup_s is the median over all of them, and only the last
// stack is measured.
const setupReps = 3

// loopClients is the closed loop's width in the request workloads
// (rest-cycle).  One client leaves the second core to the server
// side and the runtime; on a shared 2-vCPU host that made the figures of
// separate runs agree about twice as closely as two clients did.
const loopClients = 1

// sweepClients is how many sweeps campaign runs at once: two, never more
// than the host has cores.
func sweepClients() int { return min(2, runtime.NumCPU()) }

// loopResult is what one measured phase produced.
type loopResult struct {
	lat       []time.Duration // per successful operation
	windows   []window        // consecutive slices of the phase, for medians
	units     int             // work units completed (children for campaign)
	jobs      *jobTimes       // timelines of the jobs the operations ran
	sweeps    sweepTotals     // campaign: per-sweep observations
	fileBytes int64           // hilbert: logical file-store growth
	attempted int
	failed    int
	wrong     int
	problems  []string
}

// addTo charges the phase's operations to the report.
func (lr *loopResult) addTo(rep *report) {
	rep.attempted += lr.attempted
	rep.failed += lr.failed
	rep.wrong += lr.wrong
	for _, p := range lr.problems {
		rep.problem("%s", p)
	}
}

func (lr *loopResult) record(err error) {
	lr.attempted++
	if err != nil {
		lr.checkFailed(err)
	}
}

// checkFailed charges a failed check that is not itself an operation, such
// as a job left behind after the phase.
func (lr *loopResult) checkFailed(err error) {
	lr.failed++
	if errors.Is(err, errWrong) {
		lr.wrong++
	}
	if len(lr.problems) < 8 {
		lr.problems = append(lr.problems, err.Error())
	}
}

// window is one slice of a measured phase: its wall time, the process CPU
// it used and the work units it completed.  Throughput, makespan and CPU
// per operation are medians over windows, which keeps a stall in one part
// of the run from moving the whole figure.
type window struct {
	dur, cpu time.Duration
	units    int
}

func (w window) rate() float64       { return float64(w.units) / w.dur.Seconds() }
func (w window) cpuPerUnit() float64 { return ms(w.cpu) / float64(w.units) }

// windowStats returns the median throughput, wall time and CPU per unit
// over the windows.
func windowStats(ws []window) (rate, makespan, cpuPerUnit float64) {
	var r, m, c []float64
	for _, w := range ws {
		r = append(r, w.rate())
		m = append(m, w.dur.Seconds())
		c = append(c, w.cpuPerUnit())
	}
	return median(r), median(m), median(c)
}

// closedLoop runs clients goroutines, each calling op back to back until d
// has passed; a client's next operation starts only when its previous one
// returned.  op reports an error for a failed operation (wrapping errWrong
// when the output was wrong).  Every windowOps completions close a window.
func closedLoop(ctx context.Context, clients, windowOps int, d time.Duration, op func(ctx context.Context, client, seq int) error) *loopResult {
	parts := make([]loopResult, clients)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var (
		wmu       sync.Mutex
		windows   []window
		completed int
		wStart    = start
		wCPU      = cpu0
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lr := &parts[c]
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				t0 := time.Now()
				err := op(ctx, c, i)
				t1 := time.Now()
				lr.record(err)
				if err != nil {
					continue
				}
				lr.lat = append(lr.lat, t1.Sub(t0))
				lr.units++
				wmu.Lock()
				if completed++; completed%windowOps == 0 {
					now, cpu := time.Now(), cpuTime()
					windows = append(windows, window{dur: now.Sub(wStart), cpu: cpu - wCPU, units: windowOps})
					wStart, wCPU = now, cpu
				}
				wmu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out := &loopResult{windows: windows}
	for i := range parts {
		p := &parts[i]
		out.lat = append(out.lat, p.lat...)
		out.units += p.units
		out.attempted += p.attempted
		out.failed += p.failed
		out.wrong += p.wrong
		out.problems = append(out.problems, p.problems...)
	}
	return out
}

// postJob submits inputs with ?wait= and decodes the job the server
// answers with.
func postJob(ctx context.Context, hc *http.Client, url string, inputs core.Values, reqID string) (*core.Job, error) {
	body, err := json.Marshal(inputs)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"?wait=30s", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("POST: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("POST: status %d", resp.StatusCode)
	}
	var job core.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return nil, fmt.Errorf("POST: decode job: %w", err)
	}
	return &job, nil
}

// deleteJob deletes (purges) a terminal job.
func deleteJob(ctx context.Context, hc *http.Client, url, reqID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("DELETE: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE: status %d", resp.StatusCode)
	}
	return nil
}

// jobTimes sums the job-reported queue wait and run time of executed jobs.
type jobTimes struct {
	mu             sync.Mutex
	jobs           int
	queueWait, run time.Duration
}

func (jt *jobTimes) add(j *core.Job) {
	jt.mu.Lock()
	jt.jobs++
	jt.queueWait += time.Duration(j.QueueWait)
	jt.run += time.Duration(j.RunTime)
	jt.mu.Unlock()
}

// timeCalls runs fn over inputs repeatedly for at least budget and returns
// the mean time of one call.
func timeCalls(budget time.Duration, n int, fn func(i int) error) (time.Duration, error) {
	calls := 0
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls), nil
}
