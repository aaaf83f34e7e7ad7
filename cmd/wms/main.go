// Command wms runs the MathCloud workflow management service.  Workflow
// documents (JSON) POSTed to /workflows are validated against the live
// descriptions of the services they reference, stored, and published as
// composite services; executing a workflow is then an ordinary request to
// its composite service through the unified REST API.  An /editor page
// offers the browser-based editing surface.
package main

import (
	"flag"
	"log"
	"log/slog"
	"net/http"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/obs"
	"mathcloud/internal/workflow"
)

func main() {
	addr := flag.String("addr", ":8082", "listen address")
	workers := flag.Int("workers", 8, "job handler pool size")
	baseURL := flag.String("base-url", "", "externally visible base URL (default: http://<addr>, localhost for a bare :port)")
	debugAddr := flag.String("debug-addr", "", "optional pprof/metrics listener (e.g. 127.0.0.1:6061)")
	memoEntries := flag.Int("memo-entries", 0, "computation cache entry bound (0 = default 4096, negative disables)")
	memoBytes := flag.Int64("memo-bytes", 0, "computation cache byte bound (0 = default 256 MiB, negative disables)")
	batchMax := flag.Int("batch", 0, "micro-batch size cap for batch-capable services (0 = default 16, <2 disables)")
	sweepWidth := flag.Int("sweep-width", 0, "maximum child jobs per parameter sweep (0 = default 10000, negative uncapped)")
	maxWait := flag.Duration("max-wait", 0, "cap on ?wait= long-poll windows and SSE idle streams (0 = default 60s, negative uncapped)")
	flag.Parse()

	obs.SetLogLevel(slog.LevelInfo)

	registry := adapter.NewRegistry()
	c, err := container.New(container.Options{
		Workers:        *workers,
		Adapters:       registry,
		DebugAddr:      *debugAddr,
		MemoMaxEntries: *memoEntries,
		MemoMaxBytes:   *memoBytes,
		BatchMaxSize:   *batchMax,
		MaxSweepWidth:  *sweepWidth,
		MaxWaitWindow:  *maxWait,
	})
	if err != nil {
		log.Fatalf("wms: %v", err)
	}
	defer c.Close()

	// Workflow blocks targeting services in this very container dispatch
	// in-process; remote blocks go over HTTP.
	invoker := workflow.NewLocalInvoker(&workflow.HTTPInvoker{})
	wms := workflow.NewWMS(c, registry, invoker, invoker)

	if *baseURL != "" {
		c.SetBaseURL(*baseURL)
	} else {
		c.SetBaseURL(container.DefaultBaseURL(*addr))
	}
	log.Printf("wms: listening on %s", *addr)
	// The WMS handler carries its own ingress instrumentation (request
	// IDs, metrics, structured logs), so no extra logging wrapper.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           wms.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}
