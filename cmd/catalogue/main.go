// Command catalogue runs the MathCloud service catalogue: a web
// application for discovery, monitoring and annotation of computational
// web services.  Services are published by POSTing {"uri", "tags"} to
// /services; the catalogue retrieves their descriptions through the
// unified REST API, indexes them and answers full-text /search queries
// with highlighted snippets.  Published services are pinged periodically
// and marked when unavailable.
package main

import (
	"flag"
	"log"
	"log/slog"
	"net/http"
	"time"

	"mathcloud/internal/catalogue"
	"mathcloud/internal/container"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	ping := flag.Duration("ping", time.Minute, "availability ping interval (0 disables)")
	durableDir := flag.String("data-dir", "", "write-ahead journal directory: every registration is durable as it happens (checkpointed periodically)")
	walSync := flag.String("wal-sync", "batch", "journal durability mode: off, batch or always (with -data-dir)")
	flag.Parse()

	obs.SetLogLevel(slog.LevelInfo)

	cat := catalogue.New(catalogue.ClientDescriber{})
	if *durableDir != "" {
		mode, err := journal.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("catalogue: %v", err)
		}
		jl, err := journal.Open(*durableDir, journal.Options{Mode: mode})
		if err != nil {
			log.Fatalf("catalogue: %v", err)
		}
		defer jl.Close()
		if err := cat.AttachJournal(jl); err != nil {
			log.Fatalf("catalogue: %v", err)
		}
		log.Printf("catalogue: recovered %d service(s) from journal %s", cat.Size(), *durableDir)
		go func() {
			ticker := time.NewTicker(time.Minute)
			defer ticker.Stop()
			for range ticker.C {
				if err := cat.Checkpoint(); err != nil {
					log.Printf("catalogue: %v", err)
				}
			}
		}()
	}
	if *ping > 0 {
		cat.StartPinger(*ping)
	}
	defer cat.Close()

	log.Printf("catalogue: listening on %s (ping interval %s)", *addr, *ping)
	// The ingress instrumentation supplies request IDs, per-route metrics
	// and structured request logs, replacing the plain logging wrapper.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           container.Instrument(cat.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}
