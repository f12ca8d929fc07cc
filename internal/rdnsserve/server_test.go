package rdnsserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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

// fixture builds a store with a small deterministic history: brians-iphone
// lives at 10.0.1.7 throughout, 10.0.1.9 cycles through dynamic names,
// and 10.0.2.0/24 joins on day 3. Returns the log path so reload tests
// can reopen it.
func fixture(t testing.TB, days int) (string, *histstore.Store, []time.Time) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := histstore.Open(path, histstore.WithCache(256), histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	var times []time.Time
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < days; day++ {
		recs := scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("host-9-%d.dyn.example.net", day)),
		}
		if day >= 3 {
			recs[dnswire.MustIPv4("10.0.2.4")] = dnswire.MustName("printer.example.net")
		}
		d := start.AddDate(0, 0, day)
		if err := st.Append(d, recs); err != nil {
			t.Fatal(err)
		}
		times = append(times, d)
	}
	return path, st, times
}

// newTestServer wraps a fixture store in a Server (which takes ownership
// of the store and closes it at cleanup).
func newTestServer(t testing.TB, days int, cfg Config) (*Server, []time.Time) {
	t.Helper()
	_, st, times := fixture(t, days)
	srv := New(st, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, times
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestV1Endpoints drives every v1 endpoint through the typed client — the
// same consumer cmd/rdnsload uses — so the wire contract is exercised end
// to end.
func TestV1Endpoints(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, times := newTestServer(t, 6, Config{Sink: reg, Tracer: telemetry.NewTracer(1, 256), Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := rdnsclient.New(ts.URL)
	ctx := context.Background()

	t.Run("at", func(t *testing.T) {
		at, err := c.At(ctx, "10.0.1.9", times[3])
		if err != nil || !at.Found || at.Name != "host-9-3.dyn.example.net." {
			t.Fatalf("at day 3: %+v err=%v", at, err)
		}
		// An off-grid instant resolves to the preceding snapshot.
		at, err = c.At(ctx, "10.0.1.9", times[2].Add(11*time.Hour))
		if err != nil || at.Name != "host-9-2.dyn.example.net." || !at.Resolved.Equal(times[2]) {
			t.Fatalf("off-grid at: %+v err=%v", at, err)
		}
		at, err = c.At(ctx, "10.0.2.4", times[0])
		if err != nil || at.Found {
			t.Fatalf("found a record before the block existed: %+v err=%v", at, err)
		}
	})

	t.Run("range", func(t *testing.T) {
		rows, err := c.RangeAll(ctx, rdnsclient.RangeQuery{
			Prefix: "10.0.1.0/24", From: times[0], To: times[1],
		})
		if err != nil || len(rows) != 4 { // two addresses, two days
			t.Fatalf("range: %d rows, err %v", len(rows), err)
		}
	})

	t.Run("churn", func(t *testing.T) {
		cr, err := c.Churn(ctx, "10.0.0.0/16", time.Time{}, time.Time{})
		if err != nil || len(cr.Days) != 5 { // days 1..5
			t.Fatalf("churn: %+v err=%v", cr, err)
		}
		// Day 3: host-9 renamed, printer joined.
		if d := cr.Days[2]; d.Added != 1 || d.Changed != 1 || d.Removed != 0 {
			t.Fatalf("churn day 3: %+v", d)
		}
	})

	t.Run("name", func(t *testing.T) {
		ps, err := c.NameAll(ctx, "brian")
		if err != nil || len(ps) != 1 || ps[0].Prefix != "10.0.1.0/24" {
			t.Fatalf("name postings: %+v err=%v", ps, err)
		}
		if !ps[0].First.Equal(times[0]) || !ps[0].Last.Equal(times[5]) {
			t.Fatalf("posting interval: %+v", ps[0])
		}
	})

	t.Run("days", func(t *testing.T) {
		dr, err := c.Days(ctx)
		if err != nil || dr.Count != 6 || len(dr.Days) != 6 {
			t.Fatalf("days: %+v err=%v", dr, err)
		}
	})

	t.Run("stats", func(t *testing.T) {
		sr, err := c.Stats(ctx)
		if err != nil || sr.Store.Snapshots != 6 || sr.Generation != 0 {
			t.Fatalf("stats: %+v err=%v", sr, err)
		}
		if sr.Admission.Admitted == 0 {
			t.Fatalf("admission counter dead: %+v", sr.Admission)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		snap := reg.Snapshot()
		queries := snap.Counters[metricQueries]
		if queries == 0 {
			t.Fatal("query counter did not move")
		}
		if snap.Histograms[metricQuerySeconds].Count != queries {
			t.Fatalf("latency histogram count %d != queries %d",
				snap.Histograms[metricQuerySeconds].Count, queries)
		}
		if snap.Histograms[metricQuerySeconds+`{endpoint="at"}`].Count == 0 {
			t.Fatal("per-endpoint histogram dead")
		}
	})
}

// TestErrorEnvelope: every failure mode returns the documented
// {"error":{"code","message"}} envelope with the documented status.
func TestErrorEnvelope(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, _ := newTestServer(t, 6, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method string
		path   string
		status int
		code   string
	}{
		{"GET", "/v1/at", 400, rdnsclient.CodeBadParam},                        // missing ip
		{"GET", "/v1/at?ip=banana", 400, rdnsclient.CodeBadParam},              // bad ip
		{"GET", "/v1/at?ip=1.2.3.4&t=yesterday", 400, rdnsclient.CodeBadParam}, // bad instant
		{"GET", "/v1/at?ip=1.2.3.4&t=2019-01-01", 400, rdnsclient.CodeBeforeHistory},
		{"GET", "/v1/at?ip=1.2.3.4&time=2020-03-01", 400, rdnsclient.CodeBadParam}, // unknown param
		{"GET", "/v1/range", 400, rdnsclient.CodeBadParam},                         // missing prefix
		{"GET", "/v1/range?prefix=10.0.1.0/33", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/range?prefix=10.0.1.0/24&limit=0", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/range?prefix=10.0.1.0/24&limit=-1", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/range?prefix=10.0.1.0/24&limit=99999", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/range?prefix=10.0.1.0/24&limit=banana", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/range?prefix=10.0.1.0/24&cursor=%21%21", 400, rdnsclient.CodeInvalidCursor},
		{"GET", "/v1/range?prefix=10.0.1.0/24&cursor=aGVsbG8", 400, rdnsclient.CodeInvalidCursor},
		{"GET", "/v1/churn", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/name", 400, rdnsclient.CodeBadParam},
		{"GET", "/v1/name?token=brian&cursor=bogus", 400, rdnsclient.CodeInvalidCursor},
		{"GET", "/v1/nope", 404, rdnsclient.CodeNotFound},
		{"GET", "/nope", 404, rdnsclient.CodeNotFound},
		{"POST", "/v1/admin/reload", 403, rdnsclient.CodeForbidden}, // no Reopen configured
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env rdnsclient.ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if derr != nil {
			t.Errorf("%s %s: body is not an envelope: %v", tc.method, tc.path, derr)
			continue
		}
		if resp.StatusCode != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s %s: got %d %q (%s), want %d %q",
				tc.method, tc.path, resp.StatusCode, env.Error.Code, env.Error.Message, tc.status, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}

// TestV1Pagination: cursors round-trip, an exactly-full page is followed
// by an empty final page, cursors are bound to their query, and windows
// entirely before history yield a clean empty page.
func TestV1Pagination(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, times := newTestServer(t, 6, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := rdnsclient.New(ts.URL)
	ctx := context.Background()

	// 10.0.1.0/24 over all 6 days: 2 addresses x 6 days = 12 rows.
	q := rdnsclient.RangeQuery{Prefix: "10.0.1.0/24", Limit: 5}
	it := c.Range(q)
	var counts []int
	var rows []rdnsclient.RangeRow
	for it.Next(ctx) {
		counts = append(counts, it.Page().Count)
		rows = append(rows, it.Page().Rows...)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(counts) != 3 || counts[0] != 5 || counts[1] != 5 || counts[2] != 2 {
		t.Fatalf("pages %v, want [5 5 2]", counts)
	}

	// limit=4 divides 12 exactly: the scan ends at the third page with no
	// dangling cursor (the server only hands out a cursor after seeing a
	// further row). Clients must still tolerate empty pages — the
	// documented contract reserves them — which rdnsclient's iterator
	// tests cover against a mock server.
	it = c.Range(rdnsclient.RangeQuery{Prefix: "10.0.1.0/24", Limit: 4})
	counts = nil
	for it.Next(ctx) {
		counts = append(counts, it.Page().Count)
		if it.Page().Count == 4 && len(counts) == 3 && it.Page().NextCursor != "" {
			t.Fatalf("dangling cursor on the exact-fill final page: %+v", it.Page())
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(counts) != 3 || counts[0] != 4 || counts[1] != 4 || counts[2] != 4 {
		t.Fatalf("exact-fill pages %v, want [4 4 4]", counts)
	}

	// Manual cursor round-trip.
	p1, err := c.RangePage(ctx, q, "")
	if err != nil || p1.NextCursor == "" {
		t.Fatalf("page 1: %+v err=%v", p1, err)
	}
	p2, err := c.RangePage(ctx, q, p1.NextCursor)
	if err != nil || p2.Count != 5 || p2.Rows[0] == p1.Rows[0] {
		t.Fatalf("page 2: %+v err=%v", p2, err)
	}

	// A cursor is bound to its query: replaying it under a different
	// prefix is invalid_cursor, not silent wrong-window rows.
	_, err = c.RangePage(ctx, rdnsclient.RangeQuery{Prefix: "10.0.2.0/24", Limit: 5}, p1.NextCursor)
	if ae, ok := err.(*rdnsclient.APIError); !ok || ae.Code != rdnsclient.CodeInvalidCursor {
		t.Fatalf("cross-query cursor: %v", err)
	}

	// A window entirely before history: empty page, no cursor, no error.
	empty, err := c.RangePage(ctx, rdnsclient.RangeQuery{
		Prefix: "10.0.1.0/24",
		From:   times[0].AddDate(-1, 0, 0),
		To:     times[0].AddDate(0, 0, -1),
	}, "")
	if err != nil || empty.Count != 0 || empty.NextCursor != "" {
		t.Fatalf("pre-history window: %+v err=%v", empty, err)
	}

	// Name pagination needs a token spanning several prefixes (postings
	// are per-/24): build a store where brian's devices sit in three /24s.
	nst, err := histstore.Open(filepath.Join(t.TempDir(), "name.log"))
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := nst.Append(day, scanengine.RecordSet{
		dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
		dnswire.MustIPv4("10.0.2.4"): dnswire.MustName("brians-printer.lan.example.net"),
		dnswire.MustIPv4("10.0.3.9"): dnswire.MustName("brians-nas.lan.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	nsrv := New(nst, Config{})
	t.Cleanup(func() { nsrv.Close() })
	nts := httptest.NewServer(nsrv.Handler())
	defer nts.Close()
	nc := rdnsclient.New(nts.URL)

	np1, err := nc.NamePage(ctx, rdnsclient.NameQuery{Token: "brian", Limit: 2}, "")
	if err != nil || np1.Count != 2 || np1.NextCursor == "" {
		t.Fatalf("name page 1: %+v err=%v", np1, err)
	}
	np2, err := nc.NamePage(ctx, rdnsclient.NameQuery{Token: "brian", Limit: 2}, np1.NextCursor)
	if err != nil || np2.Count != 1 || np2.NextCursor != "" {
		t.Fatalf("name page 2: %+v err=%v", np2, err)
	}
	for _, p := range np1.Postings {
		if p.Prefix == np2.Postings[0].Prefix {
			t.Fatalf("name pages repeated a posting: %+v %+v", np1, np2)
		}
	}
	// A name cursor is bound to its token.
	if _, err := nc.NamePage(ctx, rdnsclient.NameQuery{Token: "iphone", Limit: 2}, np1.NextCursor); err == nil {
		t.Fatal("cross-token cursor accepted")
	}
	all, err := nc.NameAll(ctx, "brian")
	if err != nil || len(all) != 3 {
		t.Fatalf("NameAll: %+v err=%v", all, err)
	}
}

// TestV1RangeConcatProperty: for several page sizes, the concatenation of
// paginated /v1/range pages must equal the one-shot answer row for row.
func TestV1RangeConcatProperty(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, _ := newTestServer(t, 9, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := rdnsclient.New(ts.URL)
	ctx := context.Background()

	for _, prefix := range []string{"10.0.1.0/24", "10.0.0.0/16", "10.0.1.7/32", "0.0.0.0/0"} {
		oneShot, err := c.RangeAll(ctx, rdnsclient.RangeQuery{Prefix: prefix, Limit: 10000})
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{1, 2, 3, 7} {
			got, err := c.RangeAll(ctx, rdnsclient.RangeQuery{Prefix: prefix, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(oneShot) {
				t.Fatalf("%s limit=%d: %d rows, want %d", prefix, limit, len(got), len(oneShot))
			}
			for i := range got {
				if got[i] != oneShot[i] {
					t.Fatalf("%s limit=%d row %d: %+v != %+v", prefix, limit, i, got[i], oneShot[i])
				}
			}
		}
	}
}

// TestUnroutedPathsAnswerNotFoundUncounted: a path outside the route table
// — the unversioned spellings included — answers the v1 not_found envelope
// with nothing announcing a deprecation window, and is not a request as
// far as any view is concerned.
func TestUnroutedPathsAnswerNotFoundUncounted(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := newTestServer(t, 6, Config{Sink: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/at?ip=10.0.1.7&t=2020-03-04",
		"/range?prefix=10.0.1.0/24&limit=1",
		"/churn?prefix=10.0.0.0/16",
		"/name?token=brian",
		"/days",
		"/stats",
	} {
		var env rdnsclient.ErrorEnvelope
		resp := getJSON(t, ts.URL+path, &env)
		if resp.StatusCode != 404 || env.Error.Code != rdnsclient.CodeNotFound {
			t.Errorf("%s: status %d envelope %+v, want 404 %s", path, resp.StatusCode, env, rdnsclient.CodeNotFound)
		}
		for _, h := range []string{"Deprecation", "Sunset", "Link"} {
			if v := resp.Header.Get(h); v != "" {
				t.Errorf("%s: %s header %q on a path that is not an API", path, h, v)
			}
		}
	}
	// Not queries either: nothing was admitted, counted or timed.
	if got := reg.Snapshot().Counters[metricQueries]; got != 0 {
		t.Errorf("%s = %d after requests to unrouted paths only", metricQueries, got)
	}
}

// TestStatsCacheConsistency: repeated identical queries must ride the
// reconstruction cache, visible through /v1/stats.
func TestStatsCacheConsistency(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, _ := newTestServer(t, 8, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := rdnsclient.New(ts.URL)
	ctx := context.Background()

	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const repeats = 10
	for i := 0; i < repeats; i++ {
		at, err := c.At(ctx, "10.0.1.7", time.Date(2020, 3, 5, 0, 0, 0, 0, time.UTC))
		if err != nil || at.Name != "brians-iphone.lan.example.net." {
			t.Fatalf("query %d: %+v err=%v", i, at, err)
		}
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Store.CacheHits - before.Store.CacheHits; got < repeats-1 {
		t.Fatalf("cache hits grew by %d over %d identical queries", got, repeats)
	}
	if after.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate %v after repeated queries", after.CacheHitRate)
	}
	if after.Store.Reconstructions != before.Store.Reconstructions+1 {
		t.Fatalf("reconstructions %d -> %d, want exactly one cold rebuild",
			before.Store.Reconstructions, after.Store.Reconstructions)
	}
}

// TestContextCancellation: a request whose context is already canceled
// (the client hung up) is abandoned as 499/canceled and counted apart
// from real errors.
func TestContextCancellation(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := newTestServer(t, 6, Config{Sink: reg})
	h := srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, path := range []string{
		"/v1/at?ip=10.0.1.7",
		"/v1/range?prefix=0.0.0.0/0",
		"/v1/churn?prefix=10.0.0.0/16",
		"/v1/name?token=brian",
		"/v1/days",
		"/v1/stats",
	} {
		req := httptest.NewRequest("GET", path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != statusClientClosedRequest {
			t.Errorf("%s: status %d, want %d: %s", path, rec.Code, statusClientClosedRequest, rec.Body)
		}
		var env rdnsclient.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != rdnsclient.CodeCanceled {
			t.Errorf("%s: body %s", path, rec.Body)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricQueryCanceled]; got != 6 {
		t.Fatalf("canceled counter %d, want 6", got)
	}
	if got := snap.Counters[metricQueryErrors]; got != 0 {
		t.Fatalf("canceled requests counted as errors: %d", got)
	}
}

// TestConcurrentQueriesDuringAppend hammers every v1 endpoint from
// several goroutines while the store keeps appending snapshots — the
// live-campaign serving scenario. Run under -race (make race covers this
// package).
func TestConcurrentQueriesDuringAppend(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	_, st, times := fixture(t, 10)
	reg := telemetry.NewRegistry()
	srv := New(st, Config{Sink: reg, Tracer: telemetry.NewTracer(7, 1024), Seed: 7})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const appends = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		day := times[len(times)-1]
		for i := 0; i < appends; i++ {
			day = day.AddDate(0, 0, 1)
			recs := scanengine.RecordSet{
				dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
				dnswire.MustIPv4("10.0.3.1"): dnswire.MustName(fmt.Sprintf("host-%d.dyn.example.net", i)),
			}
			if err := st.Append(day, recs); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	urls := []string{
		"/v1/at?ip=10.0.1.7&t=2020-03-08",
		"/v1/at?ip=10.0.1.7",
		"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-05",
		"/v1/churn?prefix=10.0.0.0/16&from=2020-03-02&to=2020-03-09",
		"/v1/name?token=brian",
		"/v1/days",
		"/v1/stats",
	}
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
				url := ts.URL + urls[(w+i)%len(urls)]
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				var body json.RawMessage
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Errorf("GET %s: %v", url, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	var cr rdnsclient.ChurnResponse
	getJSON(t, ts.URL+"/v1/churn?prefix=10.0.0.0/16&from=2020-03-02&to=2020-03-09", &cr)
	if len(cr.Days) != 8 {
		t.Fatalf("post-append churn window: %d days, want 8", len(cr.Days))
	}
	if st.Len() != 10+appends {
		t.Fatalf("store has %d snapshots, want %d", st.Len(), 10+appends)
	}
	if reg.Snapshot().Counters[metricQueries] == 0 {
		t.Fatal("query counter did not move")
	}
}

// TestPaginationStableDuringAppends: a paginated range scan whose window
// was resolved on page one must not see snapshots appended between pages,
// even with a defaulted (full-history) window — the cursor pins the
// upper bound.
func TestPaginationStableDuringAppends(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	_, st, times := fixture(t, 6)
	srv := New(st, Config{})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := rdnsclient.New(ts.URL)
	ctx := context.Background()

	q := rdnsclient.RangeQuery{Prefix: "10.0.1.0/24", Limit: 3} // 12 rows total
	page, err := c.RangePage(ctx, q, "")
	if err != nil || page.Count != 3 || page.NextCursor == "" {
		t.Fatalf("page 1: %+v err=%v", page, err)
	}
	got := append([]rdnsclient.RangeRow(nil), page.Rows...)
	day := times[len(times)-1]
	for page.NextCursor != "" {
		// Extend history between every page; the scan must not widen.
		day = day.AddDate(0, 0, 1)
		if err := st.Append(day, scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
		}); err != nil {
			t.Fatal(err)
		}
		if page, err = c.RangePage(ctx, q, page.NextCursor); err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Rows...)
	}
	if len(got) != 12 {
		t.Fatalf("paginated scan over appends: %d rows, want the original 12", len(got))
	}
	for _, r := range got {
		if d, _ := time.Parse(time.RFC3339, r.Date.Format(time.RFC3339)); d.After(times[5]) {
			t.Fatalf("row from beyond the pinned window: %+v", r)
		}
	}
}
