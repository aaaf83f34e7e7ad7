package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mathcloud/internal/obs"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd and perLayer are read from BENCHMARK.json at start-up, so the
// file the runs are judged by is the one source of metric names and units.
var endToEnd, perLayer []metricDef

func loadCatalogue(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	endToEnd, perLayer = doc.EndToEnd, doc.PerLayer
	if len(endToEnd) == 0 || len(perLayer) == 0 {
		return fmt.Errorf("%s: no metrics listed", path)
	}
	return nil
}

func lookupMetric(list []metricDef, name string) (metricDef, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func unitOf(name string, trace bool) string {
	list := endToEnd
	if trace {
		list = perLayer
	}
	m, _ := lookupMetric(list, name)
	return m.Unit
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.  xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, capped at p99 and floored at the median: with n
// samples that is q = 1 - 10/n.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, q))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailChunk is how many consecutive operations one tail estimate covers:
// its p99 has ten samples beyond it.
const tailChunk = 1000

// tailLatency estimates the p99 latency in ms from per-operation
// latencies in completion order, and says how.  With at least two chunks
// it is the median over chunks of each chunk's p99, so a short stall of
// the host moves one chunk, not the figure; with fewer samples it is the
// highest percentile that still has ten samples beyond it.
func tailLatency(lat []time.Duration) (float64, string) {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	if len(xs) >= 2*tailChunk {
		var tails []float64
		for i := tailChunk; i <= len(xs); i += tailChunk {
			tails = append(tails, quantile(xs[i-tailChunk:i], 0.99))
		}
		return median(tails), fmt.Sprintf("median p99 of %d chunks of %d operations", len(tails), tailChunk)
	}
	q := tailQuantile(len(xs))
	return quantile(xs, q), fmt.Sprintf("p%.4g of %d operations", 100*q, len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counters is one /metrics scrape, reduced to a total per metric name:
// every labelled series of a name is summed.  The registry is process
// global, so in a federation the totals cover every replica, the gateway
// and the benchmark's own client library.
type counters map[string]float64

// scrape fetches base+"/metrics", checks it with obs.ValidateExposition and
// folds it into per-name totals.
func scrape(ctx context.Context, base string) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("scrape: malformed exposition: %w", err)
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// hostFacts records what the numbers depend on: core count, scheduler
// width, toolchain, CPU model, whether the data directory is tmpfs (which
// makes fsync free), and the share of CPU time the hypervisor stole since
// the run started.
func hostFacts(dataDir string, ticks0, steal0 int64) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		const tmpfsMagic = 0x01021994
		facts["data_dir_tmpfs"] = st.Type == tmpfsMagic
	}
	if ticks, steal := cpuTicks(); ticks > ticks0 {
		facts["cpu_steal_pct"] = 100 * float64(steal-steal0) / float64(ticks-ticks0)
	}
	return facts
}

// cpuTicks reads the host's aggregate CPU counters from /proc/stat: total
// ticks and ticks stolen by the hypervisor.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
