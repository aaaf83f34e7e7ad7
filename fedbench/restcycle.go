package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"mathcloud/internal/core"
)

// rest-cycle: the Table 1 request cycle through the federation.  Each
// operation POSTs seeded inputs with ?wait= to the non-deterministic add
// service and DELETEs the finished job.  Every control-plane layer runs on
// every request; memo, sweeps and file staging stay idle.

// makespanWindow is the unit of work of the request workloads' makespan_s:
// this many consecutive completed operations.
const makespanWindow = 100

func runRestCycle(ctx context.Context, cfg *config, rep *report) error {
	return runWorkload(ctx, cfg, rep, setupRestCycle)
}

type restCycle struct {
	f       *federation
	hc      *http.Client
	clients int
	seed    uint64
	rngs    []*rand.Rand
	runs    int // measured phases so far, to keep request IDs unique
}

func setupRestCycle(ctx context.Context, cfg *config, dir string, traced bool) (harness, error) {
	f, err := newFederation(ctx, dir, traced, addService)
	if err != nil {
		return nil, err
	}
	h := &restCycle{f: f, clients: loopClients, seed: cfg.seed}
	h.hc = newHTTPClient(h.clients)
	for c := 0; c < h.clients; c++ {
		h.rngs = append(h.rngs, rand.New(rand.NewPCG(cfg.seed, uint64(c))))
	}
	return h, nil
}

// addInputs draws one seeded request: two integers, so a+b is exact.
func addInputs(rng *rand.Rand) (a, b float64) {
	return float64(rng.IntN(1 << 20)), float64(rng.IntN(1 << 20))
}

func (h *restCycle) measure(ctx context.Context, d time.Duration) (*loopResult, error) {
	h.runs++
	jt := &jobTimes{}
	url := h.f.serviceURL("add")
	lr := closedLoop(ctx, h.clients, makespanWindow, d, func(ctx context.Context, c, i int) error {
		a, b := addInputs(h.rngs[c])
		id := fmt.Sprintf("%s%d-%d-%d", timedPrefix, h.runs, c, i)
		job, err := postJob(ctx, h.hc, url, core.Values{"a": a, "b": b}, id+"-post")
		if err != nil {
			return err
		}
		jt.add(job)
		if err := deleteJob(ctx, h.hc, h.f.front.url+"/services/add/jobs/"+job.ID, id+"-del"); err != nil {
			return err
		}
		if sum, _ := job.Outputs["sum"].(float64); job.State != core.StateDone || sum != a+b {
			return fmt.Errorf("%w: job %s %s sum=%v want %v", errWrong, job.ID, job.State, job.Outputs["sum"], a+b)
		}
		return nil
	})
	lr.jobs = jt
	// DELETE purges: no add job may be left on any replica.
	for _, r := range h.f.reps {
		if left := len(r.c.Jobs().List("add")); left > 0 {
			lr.checkFailed(fmt.Errorf("%w: %d add jobs left on %s after DELETE", errWrong, left, r.name))
		}
	}
	return lr, nil
}

func (h *restCycle) finish(context.Context, *report, *loopResult) error { return nil }

func (h *restCycle) layers(_ context.Context, rep *report, tp *tracedPhase) error {
	ops := tp.lr.units
	federationLayers(rep, tp, ops)
	journalPerJob(rep, tp, ops)
	adapterPerOp(rep, tp, ops)
	return nil
}

func (h *restCycle) sample() (core.ServiceDescription, []core.Values) {
	rng := rand.New(rand.NewPCG(h.seed, 1<<32))
	inputs := make([]core.Values, 256)
	for i := range inputs {
		a, b := addInputs(rng)
		inputs[i] = core.Values{"a": a, "b": b}
	}
	return addService.Description, inputs
}

func (h *restCycle) metricsURL() string { return h.f.reps[0].srv.url }

func (h *restCycle) close() { h.f.close() }
