package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"mathcloud/internal/core"
)

// harness is one workload's running stack.
type harness interface {
	// measure runs the workload's closed loop for d and checks every output.
	measure(ctx context.Context, d time.Duration) (*loopResult, error)
	// finish runs any check of a trace-off phase that must stay outside the
	// timing.
	finish(ctx context.Context, rep *report, lr *loopResult) error
	// layers sets the workload's own per-layer metrics from a traced phase.
	layers(ctx context.Context, rep *report, tp *tracedPhase) error
	// sample is the service and inputs the direct hash and schema timings use.
	sample() (core.ServiceDescription, []core.Values)
	// metricsURL is a base URL serving the process-wide /metrics.
	metricsURL() string
	close()
}

// setupFunc builds a workload's stack in dir from the seed.
type setupFunc func(ctx context.Context, cfg *config, dir string, traced bool) (harness, error)

// tracedPhase is a traced measurement with the counter scrapes around it.
type tracedPhase struct {
	plain         *loopResult // the same phase untraced
	lr            *loopResult
	ls            layerSums
	before, after counters
	calls         int64 // adapter invocations during the phase
}

func (tp *tracedPhase) delta(name string) float64 { return tp.after[name] - tp.before[name] }

// runWorkload runs every workload.  Trace off, in each measuring process:
// build the stack setupReps times, warm up, measure.  Trace on: build once,
// warm up, measure untraced, then measure again traced with /metrics
// scraped around it, and add the layer ladder and direct timings.
func runWorkload(ctx context.Context, cfg *config, rep *report, setup setupFunc) error {
	if !cfg.trace {
		var h harness
		var setups []float64
		for i := 0; i < setupReps; i++ {
			start := time.Now()
			hi, err := setup(ctx, cfg, filepath.Join(cfg.workDir, fmt.Sprintf("stack%d", i)), false)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			if i < setupReps-1 {
				hi.close()
			} else {
				h = hi
			}
		}
		defer h.close()
		warm, err := h.measure(ctx, cfg.warmup)
		if err != nil {
			return err
		}
		warm.addTo(rep)
		lr, err := h.measure(ctx, cfg.duration())
		if err != nil {
			return err
		}
		lr.addTo(rep)
		// With no verified unit of work every figure reads 0; the failure
		// counts tell why.
		rate, makespan, cpuPerUnit := windowStats(lr.windows)
		rep.setups = setups
		rep.set("setup_s", median(setups))
		rep.set("throughput_ops_s", rate)
		rep.set("makespan_s", makespan)
		rep.set("cpu_ms_per_op", cpuPerUnit)
		rep.set("latency_p50_ms", ms(medianDur(lr.lat)))
		tail, how := tailLatency(lr.lat)
		rep.note("latency samples=%d; tail (ungated, reported by --trace 1 as latency_p99_ms) = %.4g ms, %s", len(lr.lat), tail, how)
		rep.set("peak_rss_mb", peakRSSMB())
		rep.note("medians over %d windows", len(lr.windows))
		if !cfg.lastProc() {
			return nil
		}
		return h.finish(ctx, rep, lr)
	}

	h, err := setup(ctx, cfg, filepath.Join(cfg.workDir, "stack"), true)
	if err != nil {
		return err
	}
	defer h.close()
	warm, err := h.measure(ctx, cfg.warmup)
	if err != nil {
		return err
	}
	warm.addTo(rep)
	// The untraced phase is split around the traced one, so a drift of the
	// host during the run moves both sides of trace.overhead_pct alike.
	plain1, err := h.measure(ctx, cfg.duration()/2)
	if err != nil {
		return err
	}
	tp := &tracedPhase{}
	if tp.before, err = scrape(ctx, h.metricsURL()); err != nil {
		return err
	}
	calls0 := adapterCalls.Load()
	trc.start()
	tracedStart := time.Now()
	tp.lr, err = h.measure(ctx, cfg.duration())
	tracedWall := time.Since(tracedStart)
	spans := trc.stop()
	if err != nil {
		return err
	}
	tp.calls = adapterCalls.Load() - calls0
	if tp.after, err = scrape(ctx, h.metricsURL()); err != nil {
		return err
	}
	plain2, err := h.measure(ctx, cfg.duration()/2)
	if err != nil {
		return err
	}
	tp.plain = &loopResult{lat: append(plain1.lat, plain2.lat...)}
	for _, lr := range []*loopResult{plain1, tp.lr, plain2} {
		lr.addTo(rep)
	}
	tp.ls = sumSpans(spans)
	rep.note("counters are deltas of the process-wide /metrics registry: federation totals over every replica and the gateway")
	rep.note("traced phase: %d spans, %d operations", len(spans), tp.lr.units)

	rep.set("trace.overhead_pct", 100*(float64(medianDur(tp.lr.lat))/float64(medianDur(tp.plain.lat))-1))
	tail, how := tailLatency(tp.plain.lat)
	rep.set("latency_p99_ms", tail)
	rep.note("latency_p99_ms is from the untraced phase: %s", how)
	rep.set("memo.hit_ratio", ratio(tp.delta("mc_memo_hits_total"),
		tp.delta("mc_memo_hits_total")+tp.delta("mc_memo_misses_total")))
	rep.set("memo.evictions", tp.delta("mc_memo_evictions_total"))
	rep.set("events.dropped", tp.delta("mc_events_dropped_total"))
	rep.set("gateway.admission_rejections", tp.delta("mc_gateway_admission_rejections_total"))
	rep.set("adapter.batch_size_mean", ratio(tp.delta("mc_batch_size_sum"), tp.delta("mc_batch_size_count")))
	rep.set("journal.fsyncs_per_s", tp.delta("mc_wal_fsyncs_total")/tracedWall.Seconds())

	desc, inputs := h.sample()
	hash, err := timeCalls(200*time.Millisecond, len(inputs), func(i int) error {
		_, err := core.CanonicalHash(desc.Name, desc.Version, inputs[i], nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("hash: %w", err)
	}
	rep.set("core.hash_us", us(hash))
	validate, err := timeCalls(200*time.Millisecond, len(inputs), func(i int) error {
		return desc.ValidateInputs(inputs[i])
	})
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	rep.set("jsonschema.validate_us", us(validate))

	if err := h.layers(ctx, rep, tp); err != nil {
		return err
	}
	return runLadder(ctx, filepath.Join(cfg.workDir, "ladder"), cfg.seed, rep)
}

// journalPerJob sets the WAL volume per job created in the traced phase.
func journalPerJob(rep *report, tp *tracedPhase, jobs int) {
	rep.set("journal.appends_per_job", perOp(tp.delta("mc_wal_appends_total"), jobs))
	rep.set("journal.bytes_per_job", perOp(tp.delta("mc_wal_bytes_total"), jobs))
}

// adapterPerOp sets the adapter's busy time and call count per unit.
func adapterPerOp(rep *report, tp *tracedPhase, units int) {
	rep.set("adapter.busy_us", perOp(us(tp.ls.dur[spanAdapter]), units))
	rep.set("adapter.calls_per_op", perOp(float64(tp.calls), units))
}

// federationLayers sets the gateway and replica-handler metrics of a
// workload whose operations are plain requests through the gateway.
func federationLayers(rep *report, tp *tracedPhase, ops int) {
	ls, jt := tp.ls, tp.lr.jobs
	if jt == nil {
		jt = &jobTimes{}
	}
	rep.set("gateway.self_us", perOp(us(ls.self(spanGateway)), ops))
	rep.set("gateway.hop_us", perOp(us(ls.self(spanUpstream)), ops))
	rep.set("gateway.upstream_per_op", perOp(float64(ls.count[spanUpstream]), ops))
	rep.set("container.self_us", perOp(us(ls.dur[spanReplica]-jt.queueWait-jt.run), ops))
	rep.set("container.resp_bytes_per_op", perOp(float64(ls.bytes[spanReplica]), ops))
	rep.set("jobmanager.queue_wait_us", perOp(us(jt.queueWait), jt.jobs))
	rep.set("jobmanager.run_self_us", runSelf(jt, ls))
}

// runSelf is a job's mean run time minus the mean adapter call: staging,
// output publication and settlement.  A micro-batched job's run time spans
// its whole batch, so the adapter call it is compared with is the batch.
func runSelf(jt *jobTimes, ls layerSums) float64 {
	return perOp(us(jt.run), jt.jobs) - perOp(us(ls.dur[spanAdapter]), ls.count[spanAdapter])
}
