package rdnsserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

// TestCompactionUnderLoad is the serving-side compaction race test: four
// query workers hammer the daemon's v1 endpoints while a compaction
// through the admin endpoint seals the released writer's history in
// place, and then while the writer's campaign, back at work, appends
// beside them and a second compaction is skipped for the writer's lock —
// all under -race (make race covers this package). Every query must
// answer 200, and the cache/tier counters in /v1/stats must agree with
// the hist_* metrics.
func TestCompactionUnderLoad(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir() + "/hist"
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

	// A finished campaign: 20 days, then released. This is the tail the
	// live compaction pass can seal.
	w0, err := histstore.Open(dir, histstore.WithWriter("w0"), histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 20; day++ {
		recs := scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("host-9-%d.dyn.example.net", day)),
		}
		if err := w0.Append(start.AddDate(0, 0, day), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon serves a read-only handle with its own telemetry; the
	// appender runs as a separate (untelemetered) store so the registry
	// mirrors exactly one store's counters.
	reg := telemetry.NewRegistry()
	serving, err := histstore.Open(dir,
		histstore.WithReadOnly(), histstore.WithCache(256),
		histstore.WithTelemetry(reg), histstore.WithHotSegments(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{Sink: reg})
	defer srv.Close()
	h := srv.Handler()
	compact := func() rdnsclient.CompactResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/compact", nil))
		if rec.Code != 200 {
			t.Fatalf("compact: %d %s", rec.Code, rec.Body)
		}
		var cr rdnsclient.CompactResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}

	// Four query workers racing the appends and the compaction.
	urls := []string{
		"/v1/at?ip=10.0.1.7&t=2020-03-08",
		"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-15&limit=100",
		"/v1/churn?prefix=10.0.0.0/16&from=2020-03-02&to=2020-03-19",
		"/v1/name?token=brian",
		"/v1/stats",
	}
	stop := make(chan struct{})
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		workers.Add(1)
		go func() {
			defer workers.Done()
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
					t.Errorf("worker %d: GET %s: %d %s", w, u, rec.Code, rec.Body)
					return
				}
			}
		}()
	}

	// One live compaction pass through the admin endpoint while the
	// query workers run: the writer is idle, so it seals in place.
	if cr := compact(); len(cr.Results) != 1 || cr.Results[0].Writer != "w0" ||
		cr.Results[0].Sealed != 20 || cr.Results[0].Skipped != "" {
		t.Fatalf("compact results: %+v", cr.Results)
	}

	// The campaign comes back and appends while the queries go on; the
	// serving handle sees none of it until a reload, and a compaction
	// from it now skips the writer its process holds.
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var appenders sync.WaitGroup
	appendErr := make(chan error, 1)
	appenders.Add(1)
	go func() {
		defer appenders.Done()
		for day := 0; day < 15; day++ {
			recs := scanengine.RecordSet{
				dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
				dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("lease-%d.dyn.example.net", day)),
			}
			if err := st.Append(start.AddDate(0, 0, 20+day), recs); err != nil {
				appendErr <- fmt.Errorf("append day %d: %w", day, err)
				return
			}
		}
	}()
	if cr := compact(); len(cr.Results) != 1 || cr.Results[0].Writer != "w0" || cr.Results[0].Skipped == "" {
		t.Fatalf("compact results with the writer live: %+v", cr.Results)
	}

	appenders.Wait()
	close(stop)
	workers.Wait()
	select {
	case err := <-appendErr:
		t.Fatal(err)
	default:
	}

	// The stats surface and the hist_* instruments describe the same
	// store: cache, tier, and compaction counters must agree exactly now
	// that all query traffic has stopped.
	snap := srv.StatsSnapshot().Store
	if snap.Segments != 1 || snap.Compaction.Runs != 1 || snap.Compaction.SealedSnapshots != 20 {
		t.Fatalf("post-compaction stats: %+v", snap)
	}
	if got := reg.Counter(histstore.MetricCacheHits).Value(); got != snap.CacheHits {
		t.Fatalf("hist_cache_hits_total %d != stats %d", got, snap.CacheHits)
	}
	if got := reg.Counter(histstore.MetricCacheMisses).Value(); got != snap.CacheMisses {
		t.Fatalf("hist_cache_misses_total %d != stats %d", got, snap.CacheMisses)
	}
	if got := reg.Counter(histstore.MetricTierLoads).Value(); got != snap.TierLoads {
		t.Fatalf("hist_tier_loads_total %d != stats %d", got, snap.TierLoads)
	}
	if got := reg.Counter(histstore.MetricTierEvictions).Value(); got != snap.TierEvictions {
		t.Fatalf("hist_tier_evictions_total %d != stats %d", got, snap.TierEvictions)
	}
	if got := reg.Counter(histstore.MetricCompactions).Value(); got != snap.Compaction.Runs {
		t.Fatalf("hist_compactions_total %d != stats %d", got, snap.Compaction.Runs)
	}
	if got := reg.Counter(histstore.MetricCompactSealed).Value(); got != snap.Compaction.SealedSnapshots {
		t.Fatalf("hist_compact_sealed_snapshots_total %d != stats %d", got, snap.Compaction.SealedSnapshots)
	}
	if snap.HotSegments > 1 {
		t.Fatalf("hot segments %d over a budget of 1", snap.HotSegments)
	}

	// The serving store still answers correctly after the in-place seal:
	// w0's history is in the segment now, bit-identical.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/at?ip=10.0.1.7&t=2020-03-08", nil))
	if rec.Code != 200 {
		t.Fatalf("post-compaction query: %d %s", rec.Code, rec.Body)
	}
	var at struct {
		Found bool   `json:"found"`
		Name  string `json:"name"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &at); err != nil {
		t.Fatal(err)
	}
	if !at.Found || at.Name != "brians-iphone.lan.example.net." {
		t.Fatalf("post-compaction At: %s", rec.Body)
	}
}

// TestHotReloadDuringCompaction extends the reload race: the serving
// handle swaps generations while a compaction rewrites the store on
// disk underneath. Reopens land on whichever manifest is current —
// possibly mid-rename, which the open retry absorbs — and no query or
// reload may fail.
func TestHotReloadDuringCompaction(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir() + "/hist"
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	writer, err := histstore.Open(dir, histstore.WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 30; day++ {
		recs := scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("host-9-%d.dyn.example.net", day)),
		}
		if err := writer.Append(start.AddDate(0, 0, day), recs); err != nil {
			t.Fatal(err)
		}
	}

	serving, err := histstore.Open(dir, histstore.WithReadOnly(), histstore.WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{
		Reopen: func() (*histstore.Store, error) {
			return histstore.Open(dir, histstore.WithReadOnly(), histstore.WithCache(64))
		},
	})
	defer srv.Close()
	h := srv.Handler()

	// The compactor: seal the writer's 30 days while reloads churn. The
	// writer owns its tail, so it compacts in place on its own handle.
	compactDone := make(chan error, 1)
	go func() {
		defer writer.Close()
		res, err := writer.CompactWriter(t.Context(), histstore.DefaultWriter, histstore.CompactOptions{})
		if err == nil && res.Sealed != 30 {
			err = fmt.Errorf("sealed %d, want 30", res.Sealed)
		}
		compactDone <- err
	}()

	// Reload churn racing the compaction's commit and cleanup: every
	// swap must succeed and serve all 30 snapshots.
	for i := 0; i < 10; i++ {
		resp, err := srv.Reload()
		if err != nil {
			t.Fatalf("reload %d during compaction: %v", i, err)
		}
		if resp.Snapshots != 30 {
			t.Fatalf("reload %d: %d snapshots, want 30", i, resp.Snapshots)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/at?ip=10.0.1.7&t=2020-03-15", nil))
		if rec.Code != 200 {
			t.Fatalf("query during compaction/reload churn: %d %s", rec.Code, rec.Body)
		}
	}
	if err := <-compactDone; err != nil {
		t.Fatalf("compact: %v", err)
	}

	// A final reload lands on the compacted layout and serves it.
	resp, err := srv.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshots != 30 {
		t.Fatalf("final reload: %+v", resp)
	}
	stats := srv.StatsSnapshot().Store
	if stats.Segments != 1 {
		t.Fatalf("final serving store sees %d segments, want 1", stats.Segments)
	}
}

// TestAdminCompactEndpoint covers the admin surface around the happy
// path the load test takes: a compaction already in flight (409
// compact_busy), and the skipped-writer response once there is nothing
// left to seal.
func TestAdminCompactEndpoint(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	path, writer, _ := fixture(t, 10)
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	serving, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{})
	defer srv.Close()
	h := srv.Handler()

	// Park a sweep at its mid-protocol fault point; a second POST while
	// it hangs must answer 409 without touching the store.
	parked := make(chan struct{})
	resume := make(chan struct{})
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.sealed" {
			close(parked)
			<-resume
		}
		return nil
	})
	defer testutil.SetFaultHook(nil)
	firstDone := make(chan error, 1)
	go func() {
		_, err := srv.Compact(context.Background())
		firstDone <- err
	}()
	<-parked
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/compact", nil))
	if rec.Code != 409 || !strings.Contains(rec.Body.String(), rdnsclient.CodeCompactBusy) {
		t.Fatalf("busy compact: %d %s", rec.Code, rec.Body)
	}
	close(resume)
	if err := <-firstDone; err != nil {
		t.Fatalf("parked compact: %v", err)
	}
	testutil.SetFaultHook(nil)

	// Everything is sealed now: the sweep reports the writer as skipped
	// rather than churning out empty segments.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/compact", nil))
	if rec.Code != 200 {
		t.Fatalf("idle compact: %d %s", rec.Code, rec.Body)
	}
	var cr rdnsclient.CompactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) != 1 || cr.Results[0].Skipped == "" || cr.Results[0].Sealed != 0 {
		t.Fatalf("idle compact results: %+v", cr.Results)
	}
}

// TestAdminCompactHonorsConfigOptions pins the Config.Compact plumbing:
// the daemon's -compact-min-seal must govern POST /v1/admin/compact, not
// just the background loop. A 2-snapshot tail is below the store's
// default threshold (base interval 4), so sealing proves the configured
// MinSeal reached the sweep.
func TestAdminCompactHonorsConfigOptions(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	path, writer, _ := fixture(t, 2)
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	serving, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{Compact: histstore.CompactOptions{MinSeal: 1}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out rdnsclient.CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Sealed != 2 || out.Results[0].Skipped != "" {
		t.Fatalf("compact results = %+v, want 2 snapshots sealed", out.Results)
	}
	// The background loop's entry point runs under the same options: with
	// the tail sealed there is nothing left for it to do.
	if res, err := srv.Compact(context.Background()); err != nil || res.Skipped == "" {
		t.Fatalf("second sweep = %+v err=%v, want the empty tail skipped", res, err)
	}
}
