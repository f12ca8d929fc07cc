package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"sync"
	"time"
)

// Exporter serves a registry (and optionally a tracer and a health
// snapshot) over HTTP for scraping during a sweep:
//
//	/metrics      Prometheus text exposition format
//	/debug/vars   expvar-style JSON of every instrument
//	/debug/pprof/ the standard net/http/pprof handlers
//	/health       JSON of the health snapshot func, when configured
//	/trace        the span ring as JSONL, when a tracer is configured
//
// Start binds and serves on a background goroutine; Close shuts the
// listener down and waits for that goroutine, so tests can assert no
// leaks with testutil.VerifyNoLeaks.
type Exporter struct {
	reg    *Registry
	tracer *Tracer
	health func() any
	dumps  []exporterDump

	mu   sync.Mutex
	srv  *http.Server
	addr string
	done chan struct{}
}

// exporterDump is one extra dump endpoint (path, content type, writer).
type exporterDump struct {
	path        string
	contentType string
	write       func(w io.Writer) error
	empty       func() bool
}

// ExporterOption configures an Exporter.
type ExporterOption func(*Exporter)

// WithExporterTracer serves tr's span ring at /trace as JSONL.
func WithExporterTracer(tr *Tracer) ExporterOption {
	return func(e *Exporter) { e.tracer = tr }
}

// WithExporterHealth serves health() at /health as JSON. The func is
// called per request; it should return a snapshot (e.g. the engine's
// latest HealthReport), not a live pointer into mutable state.
func WithExporterHealth(health func() any) ExporterOption {
	return func(e *Exporter) { e.health = health }
}

// WithExporterDump serves write's output at path with the given content
// type — the hook rdnsd uses to expose its query log at /querylog
// without the telemetry layer knowing the log's type. write is called
// per request and must be safe concurrently with the producer (ring
// snapshots, not live buffers). A non-nil empty func that reports true
// answers 204, mirroring /trace's "not ready yet" convention.
func WithExporterDump(path, contentType string, write func(w io.Writer) error, empty func() bool) ExporterOption {
	return func(e *Exporter) {
		e.dumps = append(e.dumps, exporterDump{path: path, contentType: contentType, write: write, empty: empty})
	}
}

// NewExporter builds an exporter over reg. Call Start to serve.
func NewExporter(reg *Registry, opts ...ExporterOption) *Exporter {
	e := &Exporter{reg: reg}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Handler returns the exporter's HTTP mux, for embedding in an existing
// server.
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		e.reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		if e.health == nil {
			http.Error(w, "no health source configured", http.StatusNotFound)
			return
		}
		// "Not ready" must be distinguishable from "healthy but empty":
		// before the first sweep completes there is no report, and a
		// poller that treated a 200-with-nothing as healthy would blind
		// itself to the warm-up window. 503 says retry later.
		v := e.health()
		if isNilReport(v) {
			http.Error(w, "no health report yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		if e.tracer == nil {
			http.Error(w, "no tracer configured", http.StatusNotFound)
			return
		}
		if e.tracer.Len() == 0 {
			// An empty ring before the first span completes is "not ready",
			// not "an empty trace": 204 carries no body by definition.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		e.tracer.WriteJSONL(w)
	})
	for _, d := range e.dumps {
		d := d
		mux.HandleFunc(d.path, func(w http.ResponseWriter, _ *http.Request) {
			if d.empty != nil && d.empty() {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			w.Header().Set("Content-Type", d.contentType)
			d.write(w)
		})
	}
	return mux
}

// isNilReport reports whether a health snapshot is absent: a nil any, or a
// typed nil pointer/interface/map/slice smuggled inside one (the usual
// shape of atomic.Pointer[Report].Load() before the first store).
func isNilReport(v any) bool {
	if v == nil {
		return true
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		return rv.IsNil()
	}
	return false
}

// Start binds addr (e.g. "127.0.0.1:9090"; a ":0" port picks a free one)
// and serves in the background. It returns the bound address, so callers
// that asked for port 0 can print the real scrape URL.
func (e *Exporter) Start(addr string) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srv != nil {
		return "", fmt.Errorf("telemetry: exporter already started on %s", e.addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	e.addr = ln.Addr().String()
	e.srv = &http.Server{Handler: e.Handler(), ReadHeaderTimeout: 5 * time.Second}
	e.done = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		srv.Serve(ln)
	}(e.srv, e.done)
	return e.addr, nil
}

// Close shuts the server down and waits for the serve goroutine to exit.
// Safe to call without Start, and safe to call twice.
func (e *Exporter) Close() error {
	e.mu.Lock()
	srv, done := e.srv, e.done
	e.srv, e.done = nil, nil
	e.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	<-done
	return err
}
