package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mathcloud/internal/core"
	"mathcloud/internal/obs"
	"mathcloud/internal/workflow"
)

// Tracing.  The benchmark never instruments the program itself: it wraps
// the values the program lets a caller supply — the http.Handler it serves,
// the http.Client transport the gateway proxies through, the
// workflow.Invoker the inversion calls through, and the adapter functions
// the benchmark registers — and records one span per call.  Spans of one
// request share the X-Request-ID the stack already propagates.  They stay in
// memory and are reduced to per-layer self times when the run ends.

// Span names, one per layer boundary.
const (
	spanGateway  = "gateway"  // the gateway handler
	spanUpstream = "upstream" // the gateway's proxied request to a replica
	spanReplica  = "replica"  // a replica's (container's) handler
	spanAdapter  = "adapter"  // inside a benchmark-registered adapter function
	spanWorkflow = "workflow" // one workflow.Invoker call
	spanPayload  = "payload"  // an HTTP exchange of the workflow invoker's client
)

// timedPrefix marks the request IDs of measured operations; requests made
// for set-up and verification carry other IDs and are left out of the
// per-layer sums.
const timedPrefix = "fb-"

type span struct {
	trace      string // X-Request-ID
	name       string
	parent     string // name of the span that caused this one
	start, end time.Time
	bytes      int64 // response bytes (handlers) or request+response bytes (transports)
	stream     bool  // an SSE stream, whose duration is not request work
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer collects spans while on.  One tracer serves the whole process,
// because adapter functions are registered process-wide.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

var trc tracer

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start clears old spans and turns tracing on.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.on.Store(true)
}

// stop turns tracing off and hands back the spans recorded since start.
func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps next with a span per request.
func (t *tracer) handler(name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		t.add(span{
			trace: r.Header.Get(obs.RequestIDHeader), name: name, parent: parent,
			start: start, end: time.Now(), bytes: cw.n,
			stream: strings.HasSuffix(r.URL.Path, "/events"),
		})
	})
}

// countingWriter counts response bytes and keeps SSE flushing working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport wraps base with a span per round trip, ending when the response
// body is closed or drained.
type transport struct {
	t            *tracer
	name, parent string
	base         http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	s := span{
		trace: req.Header.Get(obs.RequestIDHeader), name: tt.name, parent: tt.parent,
		start: time.Now(), stream: strings.HasSuffix(req.URL.Path, "/events"),
	}
	if req.ContentLength > 0 {
		s.bytes = req.ContentLength
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.end = time.Now()
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody finishes its span once, at EOF or Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.add(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

// adapterSpan records the time an adapter function spent since start.
func (t *tracer) adapterSpan(ctx context.Context, start time.Time) {
	if !t.on.Load() {
		return
	}
	id, _ := obs.RequestIDFrom(ctx)
	t.add(span{trace: id, name: spanAdapter, parent: "job", start: start, end: time.Now()})
}

// tracedInvoker is the workflow.Invoker and Describer of the traced
// inversion: each call gets its own timed request ID, so the replica spans
// it causes (submit, event stream, file fetches) can be subtracted from it.
type tracedInvoker struct {
	t     *tracer
	inner *workflow.HTTPInvoker
	seq   atomic.Int64
}

func (ti *tracedInvoker) Call(ctx context.Context, uri string, inputs core.Values) (core.Values, error) {
	if !ti.t.on.Load() {
		return ti.inner.Call(ctx, uri, inputs)
	}
	id := fmt.Sprintf("%swf-%d", timedPrefix, ti.seq.Add(1))
	start := time.Now()
	out, err := ti.inner.Call(obs.WithRequestID(ctx, id), uri, inputs)
	ti.t.add(span{trace: id, name: spanWorkflow, parent: "client", start: start, end: time.Now()})
	return out, err
}

func (ti *tracedInvoker) Describe(uri string) (core.ServiceDescription, error) {
	return ti.inner.Describe(uri)
}

// layerSums reduces spans to totals per span name over the timed
// requests, leaving out event streams.  Adapter spans are kept whatever
// their request ID: the adapter functions serve only the workload.
type layerSums struct {
	dur      map[string]time.Duration
	childDur map[string]time.Duration // by parent name
	count    map[string]int
	bytes    map[string]int64
}

func sumSpans(spans []span) layerSums {
	ls := layerSums{
		dur: map[string]time.Duration{}, childDur: map[string]time.Duration{},
		count: map[string]int{}, bytes: map[string]int64{},
	}
	for _, s := range spans {
		if s.stream || (s.name != spanAdapter && !strings.HasPrefix(s.trace, timedPrefix)) {
			continue
		}
		ls.dur[s.name] += s.dur()
		ls.childDur[s.parent] += s.dur()
		ls.count[s.name]++
		ls.bytes[s.name] += s.bytes
	}
	return ls
}

// self is the time spent in layer name minus the part its child spans
// cover.
func (ls layerSums) self(name string) time.Duration {
	return ls.dur[name] - ls.childDur[name]
}
