// Command fedbench is the repository benchmark: one program that runs the
// MathCloud stack in process — the mcgw gateway, everest replicas with the
// batch write-ahead journal, and the CAS/workflow plane — under three named
// workloads, checks every output, and prints each metric by name and unit.
//
//	fedbench --workload rest-cycle --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off in several fresh processes of this program (see procs.go).  With --trace 1 it reports the per-layer metrics: spans taken
// around the calls into each layer (handlers, transports, invokers and the
// adapter functions the benchmark registers), counter deltas from /metrics,
// direct timings of single functions, and the four-rung layer ladder.  The
// metric catalogue is METRICS.md next to this file.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mathcloud/internal/obs"
)

// workload is one named traffic mix.  run executes it for cfg.seconds and
// fills rep; an error means the stack could not be set up or driven at all,
// and the benchmark then prints no result.  warmup is the unmeasured phase
// before timing that lets connection pools, caches and the heap settle.
type workload struct {
	name   string
	run    func(ctx context.Context, cfg *config, rep *report) error
	warmup time.Duration
}

var workloads = []workload{
	{"rest-cycle", runRestCycle, time.Second},
	{"campaign", runCampaign, time.Second},
	// Set-up's health calls open the connections and every inversion starts
	// from a collected heap: a process's first inversion takes as long as
	// its second (2.84–3.07 s against 2.81–3.21 s over four processes on a
	// shared 2-vCPU Xeon VM), so a warm-up inversion would only add three
	// seconds per process.
	{"hilbert", runHilbert, 0},
}

// config carries the command line and the run's work directory.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
	ticks0   int64 // host CPU ticks at start, for the steal share
	steal0   int64
	warmup   time.Duration // the workload's unmeasured phase before timing
	proc     int           // index of a measuring process of a trace-off run; -1 in the run itself
	measure  time.Duration // a measuring process's share of the measured time
}

func (c *config) duration() time.Duration {
	if c.proc >= 0 {
		return c.measure
	}
	return time.Duration(c.seconds) * time.Second
}

// lastProc reports whether this process runs the checks that follow a
// workload's measured phase: the traced run, or the last measuring process
// of a trace-off run.
func (c *config) lastProc() bool { return c.proc < 0 || c.proc == procs-1 }

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: rest-cycle, campaign or hilbert")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.IntVar(&cfg.proc, "proc", -1, "internal: index of a measuring process of a trace-off run")
	flag.DurationVar(&cfg.measure, "measure", 0, "internal: a measuring process's share of the measured time")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.ticks0, cfg.steal0 = cpuTicks()
	if err := loadCatalogue("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench: run from the repository root:", err)
		return 1
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl != nil {
		cfg.warmup = wl.warmup
	}
	if wl == nil || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || (cfg.proc >= 0 && (cfg.trace || cfg.measure <= 0)) {
		fmt.Fprintln(os.Stderr, "fedbench: usage: --workload rest-cycle|campaign|hilbert --seed N --seconds S --trace 0|1")
		return 2
	}

	// Everything the run writes — journals, file stores, temp dirs — stays
	// under one work directory inside the checkout.
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	cfg.workDir = filepath.Join(wd, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	tmp := filepath.Join(cfg.workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)
	os.Setenv("TMPDIR", tmp)

	// The stack logs every request; the benchmark measures it, not stderr.
	log.SetOutput(io.Discard)
	obs.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))

	rep := newReport(cfg.trace)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	run := wl.run
	if !cfg.trace && cfg.proc < 0 {
		run = runProcs
	}
	if err := run(ctx, &cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.proc >= 0 {
		rep.printChild(os.Stdout)
		return 0
	}
	if err := rep.complete(); err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.print(os.Stdout, &cfg)
	return 0
}

// report accumulates one run's outcome.
type report struct {
	trace     bool
	attempted int
	failed    int
	wrong     int      // operations whose outputs failed a check
	problems  []string // first few failures, for stderr
	metrics   map[string]metricValue
	setups    []float64 // seconds of each stack set-up
	notes     []string  // human-readable lines printed before the result
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(trace bool) *report {
	return &report{trace: trace, metrics: make(map[string]metricValue)}
}

// fail records one failed or refused operation with a reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// wrongf records one operation whose outputs failed a correctness check; it
// also counts as failed.
func (r *report) wrongf(format string, args ...any) {
	r.failed++
	r.wrong++
	r.problem(format, args...)
}

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, value float64) {
	r.metrics[name] = metricValue{Value: value, Unit: unitOf(name, r.trace)}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete checks that the run produced exactly the metric set its mode
// promises: every end-to-end metric, or every per-layer metric.
func (r *report) complete() error {
	want := endToEnd
	if r.trace {
		want = perLayer
		r.set("error_rate", errorRate(r.attempted, r.failed))
		// A layer the workload does not exercise reads 0.
		var idle []string
		for _, m := range perLayer {
			if _, ok := r.metrics[m.Name]; !ok {
				r.set(m.Name, 0)
				idle = append(idle, m.Name)
			}
		}
		if len(idle) > 0 {
			r.note("idle on this workload (reported as 0): %s", strings.Join(idle, " "))
		}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation completed in the measured phase")
	}
	for _, m := range want {
		if _, ok := r.metrics[m.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
	}
	for name := range r.metrics {
		if _, ok := lookupMetric(want, name); !ok {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}

func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// print writes the human-readable lines, then the result object as the
// last line of standard output.
func (r *report) print(w io.Writer, cfg *config) {
	host := hostFacts(cfg.workDir, cfg.ticks0, cfg.steal0)
	host["seed"] = cfg.seed
	host["workload"] = cfg.workload
	host["seconds"] = cfg.seconds
	host["trace"] = cfg.trace
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "# host %s\n", hostJSON)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# sent=%d succeeded=%d failed=%d error_rate=%.6f\n",
		r.attempted, r.attempted-r.failed, r.failed, errorRate(r.attempted, r.failed))
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "fedbench: check failed: %s\n", p)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(w, "%s\n", out)
}
