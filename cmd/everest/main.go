// Command everest runs a MathCloud service container: it deploys the
// computational web services described in a JSON configuration file and
// publishes them through the unified REST API, together with the
// auto-generated web interface.
//
// Usage:
//
//	everest -addr :8080 -config services.json [-workers 8] [-data DIR]
//
// The configuration file has the shape:
//
//	{
//	  "clusters": [{"name": "local", "nodes": [{"name": "n1", "slots": 4}]}],
//	  "grid": {"seed": 1, "sites": [
//	      {"name": "siteA", "vos": ["mathcloud"], "reliability": 0.9,
//	       "nodes": [{"name": "a1", "slots": 4}]}]},
//	  "services": [ ...container.ServiceConfig... ]
//	}
//
// The built-in application services (CAS, AMPL solver/translator, X-ray
// curve and fit) are pre-registered as native functions, so configuration
// files can deploy them by name; -builtin additionally deploys the whole
// standard set.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/ampl"
	"mathcloud/internal/cas"
	"mathcloud/internal/container"
	"mathcloud/internal/grid"
	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
	"mathcloud/internal/scatter"
	"mathcloud/internal/torque"
)

type nodeSpec struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
}

type configFile struct {
	Clusters []struct {
		Name  string     `json:"name"`
		Nodes []nodeSpec `json:"nodes"`
	} `json:"clusters,omitempty"`
	Grid *struct {
		Seed  int64 `json:"seed"`
		Sites []struct {
			Name        string     `json:"name"`
			VOs         []string   `json:"vos"`
			Reliability float64    `json:"reliability"`
			Nodes       []nodeSpec `json:"nodes"`
		} `json:"sites"`
	} `json:"grid,omitempty"`
	Services []container.ServiceConfig `json:"services"`
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	configPath := flag.String("config", "", "service configuration file (JSON)")
	workers := flag.Int("workers", 8, "job handler pool size")
	dataDir := flag.String("data", "", "data directory (default: temporary)")
	durableDir := flag.String("data-dir", "", "durable root: file store under <dir>, write-ahead journal under <dir>/journal; jobs, sweeps, the catalogue of deployed state and the memo index survive restarts (overrides -data)")
	walSync := flag.String("wal-sync", "batch", "journal durability mode: off, batch or always (with -data-dir)")
	snapInterval := flag.Duration("snapshot-interval", time.Minute, "journal checkpoint period (with -data-dir; negative disables)")
	snapBytes := flag.Int64("snapshot-bytes", 0, "journal size that triggers an immediate checkpoint, in bytes (with -data-dir; 0 disables the size trigger)")
	jobTTL := flag.Duration("job-ttl", 0, "default destruction TTL of terminal jobs and sweeps (0 = keep until DELETE)")
	baseURL := flag.String("base-url", "", "externally visible base URL (default: http://<addr>, localhost for a bare :port)")
	builtin := flag.Bool("builtin", false, "deploy the built-in application services")
	debugAddr := flag.String("debug-addr", "", "optional pprof/metrics listener (e.g. 127.0.0.1:6060)")
	memoEntries := flag.Int("memo-entries", 0, "computation cache entry bound (0 = default 4096, negative disables)")
	memoBytes := flag.Int64("memo-bytes", 0, "computation cache byte bound (0 = default 256 MiB, negative disables)")
	batchMax := flag.Int("batch", 0, "micro-batch size cap for batch-capable services (0 = default 16, <2 disables)")
	sweepWidth := flag.Int("sweep-width", 0, "maximum child jobs per parameter sweep (0 = default 10000, negative uncapped)")
	maxWait := flag.Duration("max-wait", 0, "cap on ?wait= long-poll windows and SSE idle streams (0 = default 60s, negative uncapped)")
	replica := flag.String("replica", "", "replica identity in a federated deployment (1-16 of [a-z0-9]; prefixes all minted IDs)")
	flag.Parse()

	// Structured request/job logs are informational in a server process
	// (they default to warn-level quiet for library use and tests).
	obs.SetLogLevel(slog.LevelInfo)

	// Make every built-in computational function available to configs.
	cas.Register()
	ampl.RegisterFuncs()
	scatter.RegisterFuncs()

	opts := container.Options{
		Workers:        *workers,
		DataDir:        *dataDir,
		DebugAddr:      *debugAddr,
		MemoMaxEntries: *memoEntries,
		MemoMaxBytes:   *memoBytes,
		BatchMaxSize:   *batchMax,
		MaxSweepWidth:  *sweepWidth,
		MaxWaitWindow:  *maxWait,
		ReplicaID:      *replica,
		JobTTL:         *jobTTL,
	}
	if *durableDir != "" {
		mode, err := journal.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("everest: %v", err)
		}
		opts.DataDir = *durableDir
		opts.JournalDir = filepath.Join(*durableDir, "journal")
		opts.WALSync = mode
		opts.SnapshotInterval = *snapInterval
		opts.SnapshotBytes = *snapBytes
	}
	registry := adapter.NewRegistry()
	opts.Adapters = registry
	c, err := container.New(opts)
	if err != nil {
		log.Fatalf("everest: %v", err)
	}
	defer c.Close()

	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatalf("everest: read config: %v", err)
		}
		var cfg configFile
		if err := json.Unmarshal(data, &cfg); err != nil {
			log.Fatalf("everest: parse config: %v", err)
		}
		clusters := torque.NewClusterRegistry()
		for _, cc := range cfg.Clusters {
			nodes := make([]torque.NodeSpec, len(cc.Nodes))
			for i, n := range cc.Nodes {
				nodes[i] = torque.NodeSpec{Name: n.Name, Slots: n.Slots}
			}
			cluster, err := torque.New(cc.Name, nodes, nil)
			if err != nil {
				log.Fatalf("everest: cluster %s: %v", cc.Name, err)
			}
			defer cluster.Close()
			clusters.Add(cluster)
		}
		registry.Register("cluster", torque.NewAdapterFactory(clusters, registry))
		if cfg.Grid != nil {
			var sites []*grid.Site
			for _, sc := range cfg.Grid.Sites {
				nodes := make([]torque.NodeSpec, len(sc.Nodes))
				for i, n := range sc.Nodes {
					nodes[i] = torque.NodeSpec{Name: n.Name, Slots: n.Slots}
				}
				cluster, err := torque.New(sc.Name, nodes, nil)
				if err != nil {
					log.Fatalf("everest: site %s: %v", sc.Name, err)
				}
				defer cluster.Close()
				sites = append(sites, &grid.Site{
					Name: sc.Name, Cluster: cluster,
					VOs: sc.VOs, Reliability: sc.Reliability,
				})
			}
			infra, err := grid.New(sites, cfg.Grid.Seed)
			if err != nil {
				log.Fatalf("everest: grid: %v", err)
			}
			registry.Register("grid", grid.NewAdapterFactory(infra, registry))
		}
		if err := c.DeployAll(cfg.Services); err != nil {
			log.Fatalf("everest: %v", err)
		}
	}
	if *builtin {
		if _, err := cas.Deploy(c, "maxima", 1); err != nil {
			log.Fatalf("everest: %v", err)
		}
		for _, svc := range []container.ServiceConfig{
			ampl.SolverServiceConfig("solver"),
			ampl.TranslatorServiceConfig("translator"),
			scatter.CurveServiceConfig("xray-curve"),
			scatter.FitServiceConfig("xray-fit"),
		} {
			if err := c.Deploy(svc); err != nil {
				log.Fatalf("everest: %v", err)
			}
		}
	}

	// Recover after every service is deployed (re-driven jobs need their
	// adapters) and before the listener accepts traffic.
	if err := c.Recover(); err != nil {
		log.Fatalf("everest: %v", err)
	}

	if *baseURL != "" {
		c.SetBaseURL(*baseURL)
	} else {
		c.SetBaseURL(container.DefaultBaseURL(*addr))
	}
	names := make([]string, 0)
	for _, d := range c.Services() {
		names = append(names, d.Name)
	}
	log.Printf("everest: serving %d service(s) %v on %s", len(names), names, *addr)
	// The container handler carries its own ingress instrumentation
	// (request IDs, metrics, structured logs), so no extra logging wrapper.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}
