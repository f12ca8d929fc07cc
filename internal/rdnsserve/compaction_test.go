package rdnsserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// TestCompactionUnderLoad is the serving-side compaction race test: four
// query workers hammer the daemon's v1 endpoints on its read-only handle
// while the writer, a separate handle on the same store, seals its
// history, appends more and seals again; a reload beside the workers
// then serves the sealed layout. All of it runs under -race (make race
// covers this package). Every query must answer 200, and the cache and
// compaction counters in /v1/stats must agree with the hist_* metrics of
// the handle serving them.
func TestCompactionUnderLoad(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir() + "/hist"
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	day := func(d int) scanengine.RecordSet {
		return scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("host-9-%d.dyn.example.net", d)),
		}
	}

	// The campaign's writer: 20 days in its tail, and it stays open.
	w0, err := histstore.Open(dir, histstore.WithWriter("w0"), histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	for d := 0; d < 20; d++ {
		if err := w0.Append(start.AddDate(0, 0, d), day(d)); err != nil {
			t.Fatal(err)
		}
	}

	// The daemon serves read-only handles, each with its own telemetry
	// (the writer's is untelemetered), so a registry mirrors exactly one
	// handle's counters.
	var reg *telemetry.Registry
	open := func() (*histstore.Store, error) {
		reg = telemetry.NewRegistry()
		return histstore.Open(dir,
			histstore.WithReadOnly(), histstore.WithCache(256),
			histstore.WithTelemetry(reg))
	}
	serving, err := open()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(serving, Config{Sink: telemetry.NewRegistry(), Reopen: open})
	defer srv.Close()
	h := srv.Handler()

	// Four query workers racing the writer's compactions and appends, and
	// the reload.
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

	// The writer seals its 20 days, appends 15 more and seals those, all
	// beside the queries; the serving handle sees none of it until a
	// reload.
	for _, d := range []struct{ from, to, sealed int }{{20, 20, 20}, {20, 35, 15}} {
		for i := d.from; i < d.to; i++ {
			if err := w0.Append(start.AddDate(0, 0, i), day(i)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := w0.Compact(context.Background(), histstore.CompactOptions{})
		if err != nil || res.Writer != "w0" || res.Sealed != d.sealed || res.Skipped != "" {
			t.Fatalf("the writer's compaction: %+v, %v; want %d sealed", res, err, d.sealed)
		}
	}
	if resp, err := srv.Reload(); err != nil || resp.Snapshots != 35 {
		t.Fatalf("reload onto the sealed layout: %+v, %v", resp, err)
	}
	for i := 0; i < 2*len(urls); i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", urls[i%len(urls)], nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s after the reload: %d %s", urls[i%len(urls)], rec.Code, rec.Body)
		}
	}
	close(stop)
	workers.Wait()

	// The stats surface and the hist_* instruments describe the same
	// handle: cache and compaction counters must agree exactly now
	// that all query traffic has stopped. The daemon's handle never
	// compacts; it serves the writer's two segments.
	snap := srv.StatsSnapshot().Store
	if snap.Segments != 2 || snap.Snapshots != 35 || snap.Compaction.Runs != 0 || snap.Writers[0].TailSnapshots != 0 {
		t.Fatalf("stats after the reload: %+v", snap)
	}
	hist := reg.Snapshot().Counters
	if got := hist[histstore.MetricCacheHits]; got != snap.CacheHits {
		t.Fatalf("hist_cache_hits_total %d != stats %d", got, snap.CacheHits)
	}
	if got := hist[histstore.MetricCacheMisses]; got != snap.CacheMisses {
		t.Fatalf("hist_cache_misses_total %d != stats %d", got, snap.CacheMisses)
	}
	if got := hist[histstore.MetricCompactions]; got != snap.Compaction.Runs {
		t.Fatalf("hist_compactions_total %d != stats %d", got, snap.Compaction.Runs)
	}
	if got := hist[histstore.MetricCompactSealed]; got != snap.Compaction.SealedSnapshots {
		t.Fatalf("hist_compact_sealed_snapshots_total %d != stats %d", got, snap.Compaction.SealedSnapshots)
	}

	// The sealed layout answers as the tail did: w0's history is in the
	// segments now, bit-identical.
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
	testutil.VerifyNoLeaks(t)
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
