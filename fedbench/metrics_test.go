package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestTailLatency(t *testing.T) {
	// Few samples: the highest percentile with ten samples beyond it.
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	if got, _ := tailLatency(lat); got < 89 || got > 91 {
		t.Errorf("tail of 100 samples = %v ms, want p90 ≈ 90", got)
	}
	// Many samples: the median of per-chunk p99s ignores one bad chunk.
	lat = make([]time.Duration, 3*tailChunk)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	for i := 0; i < tailChunk; i++ {
		lat[i] = time.Second
	}
	if got, _ := tailLatency(lat); got != 1 {
		t.Errorf("tail with one stalled chunk = %v ms, want 1", got)
	}
}

func TestWindowStats(t *testing.T) {
	ws := []window{
		{dur: time.Second, cpu: 2 * time.Second, units: 100},
		{dur: 2 * time.Second, cpu: 2 * time.Second, units: 100},
		{dur: 10 * time.Second, cpu: 30 * time.Second, units: 100},
	}
	rate, makespan, cpu := windowStats(ws)
	if rate != 50 || makespan != 2 || cpu != 20 {
		t.Errorf("windowStats = %v ops/s, %v s, %v ms/op; want 50, 2, 20", rate, makespan, cpu)
	}
}

func TestScrapeSumsSeries(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/good/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("# HELP mc_x_total x\n# TYPE mc_x_total counter\nmc_x_total{a=\"1\"} 2\nmc_x_total{a=\"2\"} 3\n"))
	})
	mux.HandleFunc("/bad/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("mc_bad{ 1\n"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := scrape(context.Background(), srv.URL+"/good")
	if err != nil {
		t.Fatal(err)
	}
	if c["mc_x_total"] != 5 {
		t.Errorf("mc_x_total = %v, want 5", c["mc_x_total"])
	}
	if _, err := scrape(context.Background(), srv.URL+"/bad"); err == nil {
		t.Errorf("malformed exposition accepted")
	}
}
