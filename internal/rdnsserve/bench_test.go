package rdnsserve

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
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
// v1 handler over a 60-day two-/24 history. bench-check gates it within
// ±15%, and holds the at row's allocs/op and B/op — the serving path's
// allocation budget, which unlike its wall clock does not move with the
// host.
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
