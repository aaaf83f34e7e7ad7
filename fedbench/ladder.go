package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
)

// The layer ladder runs the same trivial job (the add service), one client
// at a time, through four rungs that each add one layer:
//
//	inproc   JobManager.SubmitCtx + Wait + Delete, no HTTP
//	http     the same container over loopback HTTP (POST ?wait=, DELETE)
//	wal      a replica with the batch-synced journal, over HTTP
//	gateway  the mcgw gateway in front of that replica
//
// The rungs take turns, one operation each, so a drift of the host moves
// all four alike.  The median latency of each rung, and the difference
// between adjacent rungs, is what that layer costs one request.

const (
	ladderWarm = 200
	ladderOps  = 1500
)

func runLadder(ctx context.Context, dir string, seed uint64, rep *report) error {
	registerFuncs()
	rng := rand.New(rand.NewPCG(seed, 1<<37))
	inputs := func() core.Values {
		a, b := addInputs(rng)
		return core.Values{"a": a, "b": b}
	}
	check := func(j *core.Job, in core.Values) error {
		sum, _ := j.Outputs["sum"].(float64)
		if j.State != core.StateDone || sum != in["a"].(float64)+in["b"].(float64) {
			return fmt.Errorf("%w: ladder job %s %s sum=%v", errWrong, j.ID, j.State, j.Outputs["sum"])
		}
		return nil
	}
	hc := newHTTPClient(1)
	overHTTP := func(base string) func(int) error {
		return func(i int) error {
			in := inputs()
			id := fmt.Sprintf("fbl-%d", i)
			job, err := postJob(ctx, hc, base+"/services/add", in, id)
			if err != nil {
				return err
			}
			if err := deleteJob(ctx, hc, base+"/services/add/jobs/"+job.ID, id); err != nil {
				return err
			}
			return check(job, in)
		}
	}

	// Rungs 1 and 2: a plain container, no journal, no replica identity.
	plain, err := container.New(container.Options{Logger: quiet})
	if err != nil {
		return err
	}
	defer plain.Close()
	if err := plain.Deploy(addService); err != nil {
		return err
	}
	plainSrv, err := startServer(plain.Handler())
	if err != nil {
		return err
	}
	defer plainSrv.close()
	plain.SetBaseURL(plainSrv.url)
	jm := plain.Jobs()
	inproc := func(int) error {
		in := inputs()
		job, err := jm.SubmitCtx(ctx, "add", in, "")
		if err == nil {
			job, err = jm.Wait(ctx, job.ID, 30*time.Second)
		}
		if err == nil {
			_, err = jm.Delete(job.ID)
		}
		if err != nil {
			return err
		}
		return check(job, in)
	}

	// Rungs 3 and 4: a replica with the -data-dir defaults (batch WAL),
	// reached directly and through a gateway.  The requests name their
	// URLs, so the replica's base URL can point at the gateway for both.
	r := &replica{name: "r01", dir: filepath.Join(dir, "r01"), svcs: []container.ServiceConfig{addService}}
	if _, err := r.start(false); err != nil {
		return err
	}
	defer func() {
		r.stop()
		r.srv.close()
	}()
	g, err := gateway.New(gateway.Options{
		Replicas: []gateway.Replica{{Name: r.name, BaseURL: r.srv.url}},
		Logger:   quiet,
	})
	if err != nil {
		return err
	}
	defer g.Close()
	gwSrv, err := startServer(g.Handler())
	if err != nil {
		return err
	}
	defer gwSrv.close()
	r.c.SetBaseURL(gwSrv.url)

	rungs := []struct {
		name string
		op   func(int) error
	}{
		{"inproc", inproc},
		{"http", overHTTP(plainSrv.url)},
		{"wal", overHTTP(r.srv.url)},
		{"gateway", overHTTP(gwSrv.url)},
	}
	lat := make([][]float64, len(rungs))
	for i := 0; i < ladderWarm+ladderOps; i++ {
		for k, rg := range rungs {
			t0 := time.Now()
			if err := rg.op(i); err != nil {
				return fmt.Errorf("ladder %s: %w", rg.name, err)
			}
			if i >= ladderWarm {
				lat[k] = append(lat[k], us(time.Since(t0)))
			}
		}
	}
	inprocUS, httpUS, walUS, gwUS := median(lat[0]), median(lat[1]), median(lat[2]), median(lat[3])
	rep.set("ladder.inproc_us", inprocUS)
	rep.set("ladder.http_us", httpUS)
	rep.set("ladder.wal_us", walUS)
	rep.set("ladder.gateway_us", gwUS)
	rep.set("ladder.http_delta_us", httpUS-inprocUS)
	rep.set("ladder.wal_delta_us", walUS-httpUS)
	rep.set("ladder.gateway_delta_us", gwUS-walUS)
	rep.note("ladder (median of %d ops each): inproc %.1f us | +HTTP %+.1f us = %.1f | +WAL %+.1f us = %.1f | +gateway %+.1f us = %.1f",
		ladderOps, inprocUS, httpUS-inprocUS, httpUS, walUS-httpUS, walUS, gwUS-walUS, gwUS)
	return nil
}
