package rdnsserve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// benchServer builds a 60-day two-/24 history behind a Server with
// admission disabled — the bench measures the serving path (mux dispatch,
// instrumentation, store query against a warm cache, JSON encode), not
// rate-limit arithmetic. qlog, when non-nil, turns the query log on.
func benchServer(b *testing.B, qlog *QueryLog) (*Server, time.Time) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.hist")
	st, err := histstore.Open(path, histstore.WithCache(1024))
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 60; day++ {
		recs := scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.2.4"): dnswire.MustName("printer.example.net"),
		}
		recs[dnswire.MustIPv4("10.0.1.9")] =
			dnswire.MustName(fmt.Sprintf("host-9-%d.dyn.example.net", day))
		if err := st.Append(start.AddDate(0, 0, day), recs); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(st, Config{Sink: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(1, 256), Seed: 1, QueryLog: qlog})
	b.Cleanup(func() { srv.Close() })
	return srv, start
}

// BenchmarkRdnsdQuery measures one query end to end through the daemon's
// v1 handler over a 60-day two-/24 history, and full pages over the page
// store. bench-check gates it within ±15%, and holds the allocs/op and B/op
// of the rows that report them — the serving path's allocation budget,
// which unlike its wall clock does not move with the host.
func BenchmarkRdnsdQuery(b *testing.B) {
	srv, start := benchServer(b, nil)
	h := srv.Handler()

	b.Run("at", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			day := (i * 7) % 60
			req := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/at?ip=10.0.1.9&t=%s", start.AddDate(0, 0, day).Format("2006-01-02")), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})

	b.Run("churn", func(b *testing.B) {
		req := httptest.NewRequest("GET", "/v1/churn?prefix=10.0.1.0/24", nil)
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})

	// Full pages, on the store built for them. What still allocates here is
	// the store walk and the recorder; render adds a constant
	// (BenchmarkRender).
	pages := pageServer(b).Handler()
	for _, pq := range pageQueries {
		b.Run(pq.name, func(b *testing.B) {
			b.ReportAllocs()
			req := httptest.NewRequest("GET", pq.url, nil)
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				pages.ServeHTTP(rec, req)
				if rec.Code != 200 || !strings.Contains(rec.Body.String()[:120], pq.count) {
					b.Fatalf("status %d: %.200s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// pageServer serves a store sized for full pages: 250 hosts in 10.0.1.0/24,
// so one day of /v1/range over it is a 250-row page, and a "kiosk" in each
// of 750 other /24s, so /v1/name?token=kiosk is a 750-posting page — the
// sizes the harness's serve-scan-cold traffic has, where benchServer's three
// records make every response a few hundred bytes.
func pageServer(b *testing.B) *Server {
	b.Helper()
	st, err := histstore.Open(filepath.Join(b.TempDir(), "pages.hist"), histstore.WithCache(1024))
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 3; day++ {
		recs := scanengine.RecordSet{}
		for h := 1; h <= 250; h++ {
			recs[dnswire.IPv4{10, 0, 1, byte(h)}] = dnswire.MustName(fmt.Sprintf("host-%d-%d.dyn.example.net", h, day))
		}
		for k := 0; k < 750; k++ {
			recs[dnswire.IPv4{10, byte(1 + k/250), byte(2 + k%250), 1}] = dnswire.MustName(fmt.Sprintf("kiosk-%d.lobby.example.net", k))
		}
		if err := st.Append(start.AddDate(0, 0, day), recs); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(st, Config{Sink: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(1, 256), Seed: 1})
	b.Cleanup(func() { srv.Close() })
	return srv
}

// The page-sized requests, and the rows each must answer with.
var pageQueries = []struct {
	name, url string
	handle    func(request) (reply, *apiError)
	count     string
}{
	{"range-page", "/v1/range?prefix=10.0.1.0/24&from=2020-03-02&to=2020-03-02", handleRange, `"count":250,`},
	{"name-page", "/v1/name?token=kiosk", handleName, `"count":750,`},
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ hdr http.Header }

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkRender measures the encode site alone: a reply a handler already
// built, rendered into a writer that discards it. bench-check holds its
// allocs/op, which must not grow with the rows of the page: two, the
// Content-Length header's value and the slice holding it.
func BenchmarkRender(b *testing.B) {
	srv := pageServer(b)
	hd := srv.acquireHandle()
	defer hd.release()
	for _, pq := range pageQueries {
		b.Run(pq.name, func(b *testing.B) {
			u, err := url.Parse(pq.url)
			if err != nil {
				b.Fatal(err)
			}
			rep, aerr := pq.handle(request{ctx: context.Background(), hd: hd, q: u.Query(), path: u.Path})
			if aerr != nil {
				b.Fatal(aerr)
			}
			w := &discardWriter{hdr: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n = render(w, rep, nil)
			}
			b.ReportMetric(float64(n), "body-B")
		})
	}
}

// BenchmarkRdnsdQueryObserved is the fully-observed twin of
// BenchmarkRdnsdQuery/at: query log on, latency exemplars retained, and
// every request carrying an X-Rdns-Corr header — quantifying what the
// PR 9 observability layer costs per request over the plain
// instrumented path.
func BenchmarkRdnsdQueryObserved(b *testing.B) {
	srv, start := benchServer(b, NewQueryLog(QueryLogConfig{Size: 1024, SlowThreshold: 50 * time.Millisecond}))
	h := srv.Handler()

	b.Run("at", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			day := (i * 7) % 60
			req := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/at?ip=10.0.1.9&t=%s", start.AddDate(0, 0, day).Format("2006-01-02")), nil)
			req.Header.Set("X-Rdns-Corr", fmt.Sprintf("%016x", uint64(i)+1))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})
}

// BenchmarkRdnsdConcurrentLoad measures the serving path under heavy
// goroutine concurrency with a production-shaped endpoint mix, and
// reports the client-observed p99 as an extra metric (p99-ns/op) that
// bench-check gates alongside ns/op.
func BenchmarkRdnsdConcurrentLoad(b *testing.B) {
	srv, _ := benchServer(b, nil)
	h := srv.Handler()
	urls := []string{
		"/v1/at?ip=10.0.1.9&t=2020-03-15",
		"/v1/at?ip=10.0.1.7&t=2020-04-01",
		"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-07&limit=1000",
		"/v1/name?token=brian",
		"/v1/days",
	}
	lat := telemetry.NewRegistry().Histogram("bench_latency_seconds", telemetry.DefaultLatencyBuckets())
	var idx atomic.Int64

	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			u := urls[int(idx.Add(1))%len(urls)]
			t0 := time.Now()
			req := httptest.NewRequest("GET", u, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			lat.Observe(time.Since(t0).Seconds())
			if rec.Code != 200 {
				b.Fatalf("GET %s: %d %s", u, rec.Code, rec.Body)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(lat.Quantile(0.99)*1e9, "p99-ns/op")
}
