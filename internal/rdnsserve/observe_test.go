package rdnsserve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// outcomeOf extracts the outcome label from an
// rdnsd_requests_total{endpoint="...",outcome="..."} counter name.
func outcomeOf(name string) string {
	i := strings.Index(name, `outcome="`)
	if i < 0 {
		return ""
	}
	rest := name[i+len(`outcome="`):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// TestOutcomeCountersConsistency drives every verdict class — successes,
// validation errors, a method violation, client cancellations, admission
// rejections, and admin actions — through the full handler stack, then
// proves the per-endpoint outcome family partitions the aggregates:
//
//	sum over all {endpoint,outcome}      == rdnsd_queries_total
//	outcome=error + outcome=rejected     == rdnsd_query_errors_total
//	outcome=canceled                     == rdnsd_query_canceled_total
//
// and that /v1/stats' Endpoints block reports the same numbers as the
// labeled counters (it reads the very counters observe writes).
func TestOutcomeCountersConsistency(t *testing.T) {
	reg := telemetry.NewRegistry()
	path, st, _ := fixture(t, 10)
	// A frozen admission clock: the token bucket never refills, so after
	// burst tokens are spent every further query is deterministically 429.
	const burst = 14
	srv := New(st, Config{
		Sink: reg,
		Seed: 42,
		Admission: AdmissionConfig{
			RatePerSec: 1,
			Burst:      burst,
			Now:        func() time.Time { return time.Date(2020, 3, 20, 0, 0, 0, 0, time.UTC) },
		},
		Reopen: func() (*histstore.Store, error) {
			return histstore.Open(path, histstore.WithCache(256), histstore.WithReadOnly())
		},
		QueryLog: NewQueryLog(QueryLogConfig{Size: 64}),
	})
	defer srv.Close()
	h := srv.Handler()

	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	get := func(url string, ctx context.Context) int {
		req := httptest.NewRequest("GET", url, nil)
		if ctx != nil {
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	total := 0
	expect := func(url string, ctx context.Context, want int) {
		t.Helper()
		total++
		if got := get(url, ctx); got != want {
			t.Fatalf("GET %s: status %d, want %d", url, got, want)
		}
	}

	// Token consumers — exactly `burst` of them, so none is rate-limited.
	expect("/v1/at?ip=10.0.1.7&t=2020-03-08", nil, 200)
	expect("/v1/at?ip=10.0.1.7&t=2020-03-08", nil, 200)
	expect("/v1/days", nil, 200)
	expect("/v1/stats", nil, 200)
	expect("/v1/at?ip=bogus&t=2020-03-08", nil, 400) // validation error
	expect("/v1/at?ip=10.0.1.7&frob=1", nil, 400)    // unknown parameter
	expect("/v1/name?token=brian", nil, 200)
	expect("/v1/at?ip=10.0.1.7&t=2020-03-08", canceledCtx, 499)
	expect("/v1/churn?prefix=10.0.0.0/16&from=2020-03-02&to=2020-03-09", canceledCtx, 499)
	expect("/v1/at?ip=10.0.1.8&t=2020-03-08", nil, 200)
	expect("/v1/range?prefix=bogus", nil, 400)
	expect("/v1/days", nil, 200)
	expect("/v1/name?token=brian", canceledCtx, 499)
	expect("/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-05", nil, 200)

	// The bucket is empty now: five more queries, all shed as 429.
	const rejected = 5
	for i := 0; i < rejected; i++ {
		expect("/v1/at?ip=10.0.1.7&t=2020-03-08", nil, 429)
	}

	// A method violation fails before admission — still a counted error.
	total++
	req := httptest.NewRequest("POST", "/v1/at?ip=10.0.1.7&t=2020-03-08", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("POST /v1/at: status %d, want 405", rec.Code)
	}

	// Admin routes are bucket-exempt and share the outcome accounting.
	total++
	req = httptest.NewRequest("POST", "/v1/admin/reload", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("POST /v1/admin/reload: status %d %s", rec.Code, rec.Body)
	}

	// --- the consistency proof ---
	snap := reg.Snapshot()
	var sum, errs, canceled, rej uint64
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, metricRequests+"{") {
			continue
		}
		sum += v
		switch outcomeOf(name) {
		case "error":
			errs += v
		case "canceled":
			canceled += v
		case "rejected":
			rej += v
		case "ok":
		default:
			t.Fatalf("counter %q: unrecognized outcome", name)
		}
	}
	if sum != uint64(total) {
		t.Fatalf("outcome families sum to %d, issued %d requests", sum, total)
	}
	if q := snap.Counters[metricQueries]; sum != q {
		t.Fatalf("outcome families sum to %d, %s = %d", sum, metricQueries, q)
	}
	if q := snap.Counters[metricQueryErrors]; errs+rej != q {
		t.Fatalf("error(%d) + rejected(%d) outcomes = %d, %s = %d", errs, rej, errs+rej, metricQueryErrors, q)
	}
	if q := snap.Counters[metricQueryCanceled]; canceled != q {
		t.Fatalf("canceled outcomes = %d, %s = %d", canceled, metricQueryCanceled, q)
	}
	if rej != rejected {
		t.Fatalf("rejected outcomes = %d, want %d", rej, rejected)
	}
	if canceled != 3 {
		t.Fatalf("canceled outcomes = %d, want 3", canceled)
	}
	if errs == 0 || sum == errs+rej+canceled {
		t.Fatalf("verdict mix degenerate: total %d, errs %d, rej %d, canceled %d", sum, errs, rej, canceled)
	}

	// /v1/stats derives its Endpoints block from the same counters the
	// hard way (label parsing); both views must agree per endpoint.
	stats := srv.StatsSnapshot()
	if len(stats.Endpoints) == 0 {
		t.Fatal("stats snapshot has no endpoint block")
	}
	for ep, es := range stats.Endpoints {
		for outcome, want := range map[string]uint64{
			"ok": es.OK, "error": es.Errors, "canceled": es.Canceled, "rejected": es.Rejected,
		} {
			name := metricRequests + `{endpoint="` + ep + `",outcome="` + outcome + `"}`
			if got := snap.Counters[name]; got != want {
				t.Fatalf("endpoint %s outcome %s: counter %d, stats %d", ep, outcome, got, want)
			}
		}
	}
}

// TestReloadScrapeRace hammers the exporter's /trace and /querylog dumps
// (plus /metrics) and the traced query path while the coordinator runs 10
// consecutive hot reloads. Run under -race (make race covers this
// package): the scrapes serialize the span ring and the query log ring
// while route handlers append to both and Reload swaps the store — any
// unsynchronized access trips the detector. Every query must be 200 and
// every scrape 200 or 204 (empty ring before the first traced request).
func TestReloadScrapeRace(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	path, writer, times := fixture(t, 10)
	defer writer.Close()

	serving, err := histstore.Open(path, histstore.WithCache(256), histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(7, 512)
	qlog := NewQueryLog(QueryLogConfig{Size: 128})
	srv := New(serving, Config{
		Sink:     reg,
		Tracer:   tracer,
		Seed:     7,
		QueryLog: qlog,
		Reopen: func() (*histstore.Store, error) {
			return histstore.Open(path, histstore.WithCache(256), histstore.WithReadOnly())
		},
	})
	defer srv.Close()
	qh := srv.Handler()
	eh := telemetry.NewExporter(reg,
		telemetry.WithExporterTracer(tracer),
		telemetry.WithExporterDump("/querylog", "application/x-ndjson",
			qlog.WriteJSONL, func() bool { return qlog.Len() == 0 }),
	).Handler()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Query workers: wire-correlated requests, so the phase child spans
	// (parse/store) churn the ring hardest.
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", "/v1/at?ip=10.0.1.7&t=2020-03-08", nil)
				req.Header.Set(rdnsclient.CorrHeader,
					fmt.Sprintf("%016x", telemetry.CorrID(int64(w+1), "race", i+1)))
				rec := httptest.NewRecorder()
				qh.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("query worker %d: status %d %s", w, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	// Scrape workers: serialize the rings while they are being written.
	for w, url := range []string{"/trace", "/querylog", "/metrics"} {
		w, url := w, url
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				eh.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != 200 && rec.Code != 204 {
					t.Errorf("scrape worker %d: GET %s: status %d %s", w, url, rec.Code, rec.Body)
					return
				}
			}
		}()
	}

	day := times[len(times)-1]
	for i := 0; i < 10; i++ {
		day = day.AddDate(0, 0, 1)
		if err := writer.Append(day, scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
		}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if _, err := srv.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if srv.StatsSnapshot().Generation != 10 {
		t.Fatalf("generation %d, want 10", srv.StatsSnapshot().Generation)
	}
	if e := reg.Snapshot().Counters[metricQueryErrors]; e != 0 {
		t.Fatalf("%s = %d after reload churn, want 0", metricQueryErrors, e)
	}
}
