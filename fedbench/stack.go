package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/adapter"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/journal"
	"mathcloud/internal/jsonschema"
	"mathcloud/internal/rest"
)

var quiet = log.New(io.Discard, "", 0)

// adapterCalls counts invocations of the benchmark's adapter functions; a
// batch call counts once per item.
var adapterCalls atomic.Int64

// campSpin is the campaign service's few microseconds of deterministic
// arithmetic.
func campSpin(x float64) float64 {
	y := x
	for i := 0; i < 16; i++ {
		y = math.Mod(y*1103515245+12345, 2147483648)
	}
	return y
}

var registerFuncs = sync.OnceFunc(func() {
	adapter.RegisterFunc("fedbench.add", func(ctx context.Context, in core.Values) (core.Values, error) {
		start := time.Now()
		adapterCalls.Add(1)
		a, _ := in["a"].(float64)
		b, _ := in["b"].(float64)
		out := core.Values{"sum": a + b}
		trc.adapterSpan(ctx, start)
		return out, nil
	})
	adapter.RegisterFunc("fedbench.camp", func(ctx context.Context, in core.Values) (core.Values, error) {
		start := time.Now()
		adapterCalls.Add(1)
		x, _ := in["x"].(float64)
		out := core.Values{"y": campSpin(x)}
		trc.adapterSpan(ctx, start)
		return out, nil
	})
	adapter.RegisterBatchFunc("fedbench.camp", func(ctx context.Context, batch []core.Values) ([]core.Values, []error) {
		start := time.Now()
		adapterCalls.Add(int64(len(batch)))
		outs := make([]core.Values, len(batch))
		for i, in := range batch {
			x, _ := in["x"].(float64)
			outs[i] = core.Values{"y": campSpin(x)}
		}
		trc.adapterSpan(ctx, start)
		return outs, make([]error, len(batch))
	})
})

// numService describes a native service over number-typed parameters.
func numService(name, fn string, inputs, outputs []string, deterministic, batch bool) container.ServiceConfig {
	num := jsonschema.New(jsonschema.TypeNumber)
	var desc core.ServiceDescription
	desc.Name, desc.Version = name, "1"
	desc.Deterministic, desc.Batch = deterministic, batch
	for _, p := range inputs {
		desc.Inputs = append(desc.Inputs, core.Param{Name: p, Schema: num})
	}
	for _, p := range outputs {
		desc.Outputs = append(desc.Outputs, core.Param{Name: p, Schema: num})
	}
	cfg, _ := json.Marshal(adapter.NativeConfig{Function: fn})
	return container.ServiceConfig{
		Description: desc,
		Adapter:     container.AdapterSpec{Kind: "native", Config: cfg},
	}
}

var (
	addService  = numService("add", "fedbench.add", []string{"a", "b"}, []string{"sum"}, false, false)
	campService = numService("camp", "fedbench.camp", []string{"x"}, []string{"y"}, true, true)
)

// server is a loopback HTTP listener whose handler can be swapped, so a
// restarted replica or a fresh gateway answers at the address clients and
// minted URIs already use.
type server struct {
	url  string
	srv  *http.Server
	h    atomic.Pointer[http.Handler]
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.swap(h)
	s.srv = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          quiet,
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) swap(h http.Handler) { s.h.Store(&h) }

// close stops the listener, drops open connections and waits for Serve to
// return.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// unavailable answers 503 while a listener has no component behind it.
var unavailable = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	http.Error(w, "restarting", http.StatusServiceUnavailable)
})

// replica is one everest container with the -data-dir defaults: a data
// directory and a batch-synced write-ahead journal.
type replica struct {
	name string
	dir  string
	svcs []container.ServiceConfig
	c    *container.Container
	srv  *server
}

// start creates (or re-creates, over the same directories) the container,
// deploys its services, replays the journal and puts it behind the
// replica's listener.  It returns the time Recover took.
func (r *replica) start(traced bool) (time.Duration, error) {
	c, err := container.New(container.Options{
		ReplicaID:  r.name,
		DataDir:    filepath.Join(r.dir, "files"),
		JournalDir: filepath.Join(r.dir, "journal"),
		WALSync:    journal.SyncBatch,
		Logger:     quiet,
	})
	if err != nil {
		return 0, fmt.Errorf("replica %s: %w", r.name, err)
	}
	if err := c.DeployAll(r.svcs); err != nil {
		c.Close()
		return 0, fmt.Errorf("replica %s: %w", r.name, err)
	}
	start := time.Now()
	if err := c.Recover(); err != nil {
		c.Close()
		return 0, fmt.Errorf("replica %s: recover: %w", r.name, err)
	}
	recovered := time.Since(start)
	r.c = c
	var h http.Handler = c.Handler()
	if traced {
		h = trc.handler(spanReplica, spanUpstream, h)
	}
	if r.srv == nil {
		if r.srv, err = startServer(h); err != nil {
			c.Close()
			return 0, err
		}
	} else {
		r.srv.swap(h)
	}
	return recovered, nil
}

// stop closes the container and leaves the listener answering 503.
func (r *replica) stop() {
	if r.srv != nil {
		r.srv.swap(unavailable)
	}
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// federation is an in-process mcgw gateway (default p2c placement) over
// two replicas r01 and r02.
type federation struct {
	traced bool
	reps   []*replica
	gw     *gateway.Gateway
	front  *server
}

// newFederation starts the replicas, then the gateway behind its own
// listener, and points every replica's base URL at the gateway.
func newFederation(ctx context.Context, dir string, traced bool, svcs ...container.ServiceConfig) (*federation, error) {
	registerFuncs()
	f := &federation{traced: traced}
	for _, name := range []string{"r01", "r02"} {
		r := &replica{name: name, dir: filepath.Join(dir, name), svcs: svcs}
		f.reps = append(f.reps, r)
		if _, err := r.start(traced); err != nil {
			f.close()
			return nil, err
		}
	}
	var err error
	if f.front, err = startServer(unavailable); err != nil {
		f.close()
		return nil, err
	}
	if err := f.startGateway(ctx); err != nil {
		f.close()
		return nil, err
	}
	for _, r := range f.reps {
		r.c.SetBaseURL(f.front.url)
	}
	return f, nil
}

// startGateway builds a fresh gateway over the replicas, puts it behind the
// front listener and waits until it has seen every replica healthy and has
// loaded their load reports and memo feeds.
func (f *federation) startGateway(ctx context.Context) error {
	opts := gateway.Options{Logger: quiet}
	for _, r := range f.reps {
		opts.Replicas = append(opts.Replicas, gateway.Replica{Name: r.name, BaseURL: r.srv.url})
	}
	if f.traced {
		opts.HTTPClient = &http.Client{Transport: &transport{
			t: &trc, name: spanUpstream, parent: spanGateway, base: rest.SharedTransport,
		}}
	}
	g, err := gateway.New(opts)
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	var h http.Handler = g.Handler()
	if f.traced {
		h = trc.handler(spanGateway, "client", h)
	}
	f.gw = g
	f.front.swap(h)
	for _, st := range g.Replicas() {
		if !st.Healthy {
			return fmt.Errorf("gateway: replica %s unhealthy after start", st.Name)
		}
	}
	g.RefreshLoad(ctx)
	return nil
}

func (f *federation) stopGateway() {
	if f.front != nil {
		f.front.swap(unavailable)
	}
	if f.gw != nil {
		f.gw.Close()
		f.gw = nil
	}
}

func (f *federation) close() {
	f.stopGateway()
	for _, r := range f.reps {
		r.stop()
		if r.srv != nil {
			r.srv.close()
		}
	}
	if f.front != nil {
		f.front.close()
	}
}

// serviceURL is the gateway URL of a service.
func (f *federation) serviceURL(name string) string { return f.front.url + "/services/" + name }

// newHTTPClient is the load generator's connection pool: at most one
// connection per concurrent client.
func newHTTPClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		IdleConnTimeout:     30 * time.Second,
	}}
}

var errWrong = errors.New("wrong output")
