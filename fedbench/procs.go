package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// procs is how many fresh processes share a trace-off run's measured time.
// One process keeps the speed it started with for its whole life, within a
// few percent, while two processes of the same binary on the same inputs
// can differ by a fifth (heap layout, hash seeds, the cores they land on).
// Each process builds its own stack, warms up and measures seconds/procs;
// every end-to-end figure is the median over the processes, so one such
// draw does not set it.
const procs = 4

// childResult is what one measuring process hands back to the run: the
// last line of its standard output.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong"`
	Problems  []string           `json:"problems"`
	Notes     []string           `json:"notes"`
	Setups    []float64          `json:"setups"`
	Metrics   map[string]float64 `json:"metrics"`
}

// printChild writes the process's outcome as one JSON line.
func (r *report) printChild(w io.Writer) {
	cr := childResult{
		Attempted: r.attempted, Failed: r.failed, Wrong: r.wrong,
		Problems: r.problems, Notes: r.notes, Setups: r.setups,
		Metrics: make(map[string]float64, len(r.metrics)),
	}
	for name, m := range r.metrics {
		cr.Metrics[name] = m.Value
	}
	out, _ := json.Marshal(cr)
	fmt.Fprintf(w, "%s\n", out)
}

// runProcs runs the trace-off measurement in procs fresh processes of this
// binary, one after the other, and folds their outcomes into rep: counts
// are summed, setup_s is the median over every set-up of every process,
// and each other metric is the median over the processes.
func runProcs(ctx context.Context, cfg *config, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	slice := cfg.duration() / procs
	var setups []float64
	per := make(map[string][]float64)
	for i := 0; i < procs; i++ {
		cmd := exec.CommandContext(ctx, exe,
			"--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0",
			"--proc", fmt.Sprint(i), "--measure", slice.String())
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		cmd.WaitDelay = 5 * time.Second
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var cr childResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
			return fmt.Errorf("process %d: result: %w", i, err)
		}
		rep.attempted += cr.Attempted
		rep.failed += cr.Failed
		rep.wrong += cr.Wrong
		for _, p := range cr.Problems {
			rep.problem("process %d: %s", i, p)
		}
		for _, n := range cr.Notes {
			rep.note("process %d: %s", i, n)
		}
		setups = append(setups, cr.Setups...)
		for name, v := range cr.Metrics {
			per[name] = append(per[name], v)
		}
	}
	for name, vs := range per {
		if name != "setup_s" {
			rep.set(name, median(vs))
		}
	}
	rep.set("setup_s", median(setups))
	rep.note("%d processes of %s measured each; setup_s is the median of %d set-ups, every other figure the median over the processes", procs, slice, len(setups))
	return nil
}
