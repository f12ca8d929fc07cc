package rdnsserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// TestHotReloadNoDroppedQueries is the hot-reload race test: 6 query
// workers hammer every v1 endpoint in-process while a coordinator
// alternates appends (on a separate writer handle) with Reload swaps.
// Every single response must be 200 — a swap may never drop, error, or
// 5xx an in-flight query — and the goroutine/error counters must agree.
// Run under -race (make race covers this package).
//
// Appends and reloads are serialized in the coordinator because Open
// truncates torn tails: reopening mid-append would fork history from the
// writer's view. Queries race the swap freely; that is the property
// under test.
func TestHotReloadNoDroppedQueries(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path, writer, times := fixture(t, 10)
	defer writer.Close()

	serving, err := histstore.Open(path, histstore.WithCache(256), histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := New(serving, Config{
		Sink: reg,
		Reopen: func() (*histstore.Store, error) {
			return histstore.Open(path, histstore.WithCache(256), histstore.WithReadOnly())
		},
	})
	defer srv.Close()
	h := srv.Handler()

	const (
		workers = 6
		reloads = 15
	)
	urls := []string{
		"/v1/at?ip=10.0.1.7&t=2020-03-08",
		"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-05&limit=100",
		"/v1/churn?prefix=10.0.0.0/16&from=2020-03-02&to=2020-03-09",
		"/v1/name?token=brian",
		"/v1/days",
		"/v1/stats",
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
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
				u := urls[(w+i)%len(urls)]
				req := httptest.NewRequest("GET", u, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("worker %d: GET %s during reload churn: %d %s", w, u, rec.Code, rec.Body)
					return
				}
			}
		}()
	}

	// The coordinator: extend history, then swap the serving handle onto
	// the grown log, repeatedly, while the workers race the swaps.
	day := times[len(times)-1]
	for i := 0; i < reloads; i++ {
		day = day.AddDate(0, 0, 1)
		if err := writer.Append(day, scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.4.2"): dnswire.MustName(fmt.Sprintf("host-%d.dyn.example.net", i)),
		}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		resp, err := srv.Reload()
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if resp.Generation != int64(i+1) || resp.Snapshots != 10+i+1 {
			t.Fatalf("reload %d: %+v", i, resp)
		}
	}
	close(stop)
	wg.Wait()

	// Post-swap state: the served history includes every appended day.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/days", nil))
	var dr struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || dr.Count != 10+reloads {
		t.Fatalf("final days: %s (err %v), want count %d", rec.Body, err, 10+reloads)
	}
	if srv.StatsSnapshot().Generation != reloads {
		t.Fatalf("generation %d, want %d", srv.StatsSnapshot().Generation, reloads)
	}

	// Zero errors, zero cancellations: nothing was dropped by the swaps.
	snap := reg.Snapshot()
	if e := snap.Counters[metricQueryErrors]; e != 0 {
		t.Fatalf("%d query errors during reload churn", e)
	}
	if c := snap.Counters[metricQueryCanceled]; c != 0 {
		t.Fatalf("%d canceled queries during reload churn", c)
	}
	if snap.Counters[metricReloads] != reloads {
		t.Fatalf("reload counter %d, want %d", snap.Counters[metricReloads], reloads)
	}

	// The drained pre-reload handles really closed their stores: the
	// original serving store must now reject direct queries.
	if _, _, err := serving.At(dnswire.MustIPv4("10.0.1.7"), day); err != histstore.ErrClosed {
		t.Fatalf("old serving store still open after swap: err=%v", err)
	}
}

// TestReloadViaAdminEndpoint: POST /v1/admin/reload swaps generations and
// reports the fresh store's size.
func TestReloadViaAdminEndpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path, writer, times := fixture(t, 5)
	defer writer.Close()
	serving, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{
		Reopen: func() (*histstore.Store, error) { return histstore.Open(path, histstore.WithReadOnly()) },
	})
	defer srv.Close()
	h := srv.Handler()

	if err := writer.Append(times[len(times)-1].AddDate(0, 0, 1), scanengine.RecordSet{
		dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/reload", nil))
	if rec.Code != 200 {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Reloaded   bool  `json:"reloaded"`
		Generation int64 `json:"generation"`
		Snapshots  int   `json:"snapshots"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Reloaded || resp.Generation != 1 || resp.Snapshots != 6 {
		t.Fatalf("reload response: %+v", resp)
	}
	// The new generation serves the new day.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/days", nil))
	var dr struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || dr.Count != 6 {
		t.Fatalf("days after reload: %s", rec.Body)
	}
}

// TestServerClose: a closed server answers 503 without panicking, Close
// is idempotent, and Reload after Close fails cleanly.
func TestServerClose(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path, st, _ := fixture(t, 3)
	srv := New(st, Config{
		Reopen: func() (*histstore.Store, error) { return histstore.Open(path) },
	})
	h := srv.Handler()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/days", nil))
	if rec.Code != 503 {
		t.Fatalf("query after close: %d %s", rec.Code, rec.Body)
	}
	if _, err := srv.Reload(); err == nil {
		t.Fatal("reload succeeded on a closed server")
	}
	// StatsSnapshot on a closed server: admission-only, no panic.
	if snap := srv.StatsSnapshot(); snap.Store.Snapshots != 0 {
		t.Fatalf("closed-server stats: %+v", snap)
	}
}

// TestMetricsDescribeServingHandle: the hist_* series, the admission
// gauges and the generation are views of what /v1/stats reports, so after
// a reload they describe the serving handle and not the sum of every
// handle the daemon opened.
func TestMetricsDescribeServingHandle(t *testing.T) {
	path, writer, times := fixture(t, 10)
	defer writer.Close()
	if _, err := writer.Compact(t.Context(), histstore.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	open := func() (*histstore.Store, error) {
		return histstore.Open(path, histstore.WithCache(256), histstore.WithTelemetry(reg), histstore.WithReadOnly())
	}
	serving, err := open()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{Sink: reg, Reopen: open, Admission: AdmissionConfig{RatePerSec: 1000}})
	defer srv.Close()
	h := srv.Handler()
	query := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for _, u := range []string{
				"/v1/at?ip=10.0.1.7&t=2020-03-08",
				"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-11",
				"/v1/churn?prefix=10.0.0.0/16",
				"/v1/name?token=brian",
			} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
				if rec.Code != 200 {
					t.Fatalf("GET %s: %d %s", u, rec.Code, rec.Body)
				}
			}
		}
	}
	query(3)
	if err := writer.Append(times[len(times)-1].AddDate(0, 0, 1), scanengine.RecordSet{
		dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	query(1)

	snap, st := reg.Snapshot(), srv.StatsSnapshot()
	s := st.Store
	if s.Snapshots != 11 || s.Segments != 1 || s.CacheHits == 0 {
		t.Fatalf("the serving handle's stats: %+v", s)
	}
	// A read-only handle writes nothing: the write-side counters, which no
	// Stats field carries, stay zero.
	counters := map[string]uint64{
		histstore.MetricReconstructions:  s.Reconstructions,
		histstore.MetricCacheHits:        s.CacheHits,
		histstore.MetricCacheMisses:      s.CacheMisses,
		histstore.MetricCompactions:      s.Compaction.Runs,
		histstore.MetricCompactSealed:    s.Compaction.SealedSnapshots,
		histstore.MetricCompactReclaimed: 0,
		histstore.MetricAppends:          0,
		histstore.MetricAppendBytes:      0,
		histstore.MetricBaseFrames:       0,
		histstore.MetricDeltaFrames:      0,
	}
	gauges := map[string]int64{
		histstore.MetricSnapshots:       int64(s.Snapshots),
		histstore.MetricBlocks:          int64(s.Blocks),
		histstore.MetricBytes:           s.Bytes,
		histstore.MetricCacheEntries:    int64(s.CacheEntries),
		histstore.MetricSegments:        int64(s.Segments),
		histstore.MetricSealedBytes:     s.SealedBytes,
		"rdnsd_admission_inflight":      st.Admission.InFlight,
		"rdnsd_admission_peak_inflight": st.Admission.PeakInFlight,
		"rdnsd_admission_clients":       int64(st.Admission.Clients),
		metricGeneration:                st.Generation,
	}
	for name, want := range counters {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), /v1/stats says %d", name, got, ok, want)
		}
	}
	for name, want := range gauges {
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), /v1/stats says %d", name, got, ok, want)
		}
	}
	for name := range snap.Counters {
		if _, ok := counters[name]; !ok && strings.HasPrefix(name, "hist_") {
			t.Errorf("%s is not checked against /v1/stats", name)
		}
	}
	for name := range snap.Gauges {
		if _, ok := gauges[name]; !ok && strings.HasPrefix(name, "hist_") {
			t.Errorf("%s is not checked against /v1/stats", name)
		}
	}
	if st.Generation != 1 || snap.Counters[metricReloads] != 1 || st.Admission.Clients != 1 || st.Admission.PeakInFlight != 1 {
		t.Fatalf("generation %d, reloads %d, admission %+v", st.Generation, snap.Counters[metricReloads], st.Admission)
	}
}

// TestReloadReleasesDescriptors guards the reload path against leaked
// handles: a store handle keeps every sealed segment's file open, so a
// generation that never closed would leak all of them. Twenty reloads of
// a four-segment store run under concurrent queries; once the old
// handles drain, the process holds one handle's descriptors, and none
// after Close.
func TestReloadReleasesDescriptors(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path, writer, _ := fixture(t, 20)
	for i := 0; i < 4; i++ {
		if _, err := writer.Compact(context.Background(), histstore.CompactOptions{MinSeal: 1}); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if err := writer.Append(time.Date(2020, 3, 21+i, 0, 0, 0, 0, time.UTC), scanengine.RecordSet{
				dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := testutil.OpenFDs()
	if err != nil {
		t.Skipf("no descriptor listing: %v", err)
	}
	open := func() (*histstore.Store, error) {
		return histstore.Open(path, histstore.WithCache(64), histstore.WithReadOnly())
	}
	serving, err := open()
	if err != nil {
		t.Fatal(err)
	}
	segs := serving.Stats().Segments
	if segs != 4 {
		t.Fatalf("%d segments, want 4", segs)
	}
	held, _ := testutil.OpenFDs()
	if held-before != segs+1 {
		t.Fatalf("one handle holds %d descriptors, want %d", held-before, segs+1)
	}
	srv := New(serving, Config{Sink: telemetry.NewRegistry(), Reopen: open})
	h := srv.Handler()

	urls := []string{
		"/v1/at?ip=10.0.1.7&t=2020-03-08",
		"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-23&limit=100",
		"/v1/churn?prefix=10.0.0.0/16&from=2020-03-02&to=2020-03-23",
		"/v1/name?token=brian",
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
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
				u := urls[(w+i)%len(urls)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
				if rec.Code != 200 {
					t.Errorf("worker %d: GET %s during reloads: %d %s", w, u, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := srv.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n, _ := testutil.OpenFDs(); n != held {
		t.Fatalf("%d descriptors after 20 reloads drained, one handle holds %d", n-before, held-before)
	}
	if _, _, err := serving.At(dnswire.MustIPv4("10.0.1.7"), time.Date(2020, 3, 8, 0, 0, 0, 0, time.UTC)); err != histstore.ErrClosed {
		t.Fatalf("the first generation's store after it drained: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := testutil.OpenFDs(); n != before {
		t.Fatalf("%d descriptors left after Close", n-before)
	}
}
