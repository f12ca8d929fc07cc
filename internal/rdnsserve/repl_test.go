package rdnsserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// replFixture builds a server whose store holds one sealed segment plus
// a live tail with snapshots — the two file kinds the feed must serve.
// Compaction runs mid-history so the tail stays live (sealing after all
// appends would leave it empty).
func replFixture(t *testing.T, cfg Config) (*Server, *histstore.Store) {
	t.Helper()
	_, st, times := fixture(t, 4)
	if _, err := st.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	for day := 4; day < 6; day++ {
		d := times[0].AddDate(0, 0, day)
		if err := st.Append(d, scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("host-9-%d.dyn.example.net", day)),
			dnswire.MustIPv4("10.0.2.4"): dnswire.MustName("printer.example.net"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(st, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, st
}

func getRepl(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func replManifestOf(t *testing.T, h http.Handler) rdnsclient.ReplManifest {
	t.Helper()
	rec := getRepl(t, h, "/v1/repl/manifest")
	if rec.Code != 200 {
		t.Fatalf("manifest: status %d: %s", rec.Code, rec.Body)
	}
	var fm rdnsclient.ReplManifest
	if err := json.Unmarshal(rec.Body.Bytes(), &fm); err != nil {
		t.Fatalf("manifest decode: %v", err)
	}
	return fm
}

// TestReplManifestEndpoint: the manifest reflects the served store's file
// set and the daemon's generation.
func TestReplManifestEndpoint(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, st := replFixture(t, Config{})
	fm := replManifestOf(t, srv.Handler())

	if fm.Generation != srv.StatsSnapshot().Generation {
		t.Fatalf("manifest generation %d, server says %d", fm.Generation, srv.StatsSnapshot().Generation)
	}
	if fm.Snapshots != 6 || fm.BaseInterval != 4 {
		t.Fatalf("manifest shape: %+v", fm)
	}
	if len(fm.Writers) != 1 || len(fm.Writers[0].Segments) != 1 {
		t.Fatalf("writers: %+v", fm.Writers)
	}
	w := fm.Writers[0]
	if w.ID != st.WriterID() || w.TailFile == "" || w.TailSize <= 0 {
		t.Fatalf("writer: %+v", w)
	}
	g := w.Segments[0]
	if g.Count != 4 || g.Size <= 0 || g.CRC == 0 {
		t.Fatalf("segment: %+v", g)
	}
	if fm.TotalBytes != g.Size+w.TailSize {
		t.Fatalf("total %d, want %d", fm.TotalBytes, g.Size+w.TailSize)
	}
}

// TestReplSegmentEndpoint: chunked fetches carry X-Repl-Size and
// reassemble to exactly the bytes the store itself serves.
func TestReplSegmentEndpoint(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, st := replFixture(t, Config{})
	h := srv.Handler()
	fm := replManifestOf(t, h)
	g := fm.Writers[0].Segments[0]

	want, _, err := st.FeedReadSegment(g.File, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for off := int64(0); off < g.Size; {
		rec := getRepl(t, h, fmt.Sprintf("/v1/repl/segment/%s?off=%d&n=200", g.File, off))
		if rec.Code != 200 {
			t.Fatalf("segment chunk at %d: status %d: %s", off, rec.Code, rec.Body)
		}
		if rec.Header().Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("segment content type %q", rec.Header().Get("Content-Type"))
		}
		if sz, _ := strconv.ParseInt(rec.Header().Get("X-Repl-Size"), 10, 64); sz != g.Size {
			t.Fatalf("X-Repl-Size %q, want %d", rec.Header().Get("X-Repl-Size"), g.Size)
		}
		body, _ := io.ReadAll(rec.Body)
		if len(body) == 0 {
			t.Fatalf("empty chunk at offset %d", off)
		}
		got = append(got, body...)
		off += int64(len(body))
	}
	if string(got) != string(want) {
		t.Fatal("chunked endpoint bytes diverge from the store's own read")
	}
}

// TestReplTailEndpoint: delta reads carry the tail identity headers, a
// caught-up read is an empty 200, and a pinned stale file is a 409
// repl_changed whose headers name the successor.
func TestReplTailEndpoint(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, st := replFixture(t, Config{})
	h := srv.Handler()
	fm := replManifestOf(t, h)
	w := fm.Writers[0]

	rec := getRepl(t, h, fmt.Sprintf("/v1/repl/tail/%s?file=%s&off=0&n=%d", w.ID, w.TailFile, w.TailSize))
	if rec.Code != 200 {
		t.Fatalf("tail read: status %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Repl-Tail-File") != w.TailFile ||
		rec.Header().Get("X-Repl-Tail-First") != strconv.Itoa(w.TailFirst) ||
		rec.Header().Get("X-Repl-Tail-Size") != strconv.FormatInt(w.TailSize, 10) {
		t.Fatalf("tail identity headers: %v", rec.Header())
	}
	if int64(rec.Body.Len()) != w.TailSize {
		t.Fatalf("tail read returned %d bytes, want %d", rec.Body.Len(), w.TailSize)
	}

	// Caught up: empty 200, not an error.
	rec = getRepl(t, h, fmt.Sprintf("/v1/repl/tail/%s?file=%s&off=%d", w.ID, w.TailFile, w.TailSize))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("caught-up read: status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	// Compaction swaps the tail; the pinned old file 409s and the headers
	// identify the successor so the replica can restart its pull.
	if _, err := st.Compact(context.Background(), histstore.CompactOptions{MinSeal: 1}); err != nil {
		t.Fatal(err)
	}
	rec = getRepl(t, h, fmt.Sprintf("/v1/repl/tail/%s?file=%s&off=0", w.ID, w.TailFile))
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale tail pin: status %d: %s", rec.Code, rec.Body)
	}
	var env rdnsclient.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != rdnsclient.CodeReplChanged {
		t.Fatalf("409 body: %s", rec.Body)
	}
	successor := rec.Header().Get("X-Repl-Tail-File")
	if successor == "" || successor == w.TailFile {
		t.Fatalf("409 names no successor tail: %v", rec.Header())
	}
	if replManifestOf(t, h).Writers[0].TailFile != successor {
		t.Fatal("409 successor does not match the fresh manifest")
	}
}

// TestReplEndpointErrors: the feed's failure modes map onto the
// documented envelope vocabulary.
func TestReplEndpointErrors(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := replFixture(t, Config{Sink: reg})
	h := srv.Handler()
	fm := replManifestOf(t, h)
	g := fm.Writers[0].Segments[0]
	w := fm.Writers[0]

	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/repl/segment/no-such-file", 404, rdnsclient.CodeNotFound},
		{"/v1/repl/tail/no-such-writer", 404, rdnsclient.CodeNotFound},
		{"/v1/repl/segment/", 400, rdnsclient.CodeBadParam},
		{"/v1/repl/segment/" + g.File + "?off=-1", 400, rdnsclient.CodeBadParam},
		{"/v1/repl/segment/" + g.File + "?off=banana", 400, rdnsclient.CodeBadParam},
		{"/v1/repl/segment/" + g.File + "?n=0", 400, rdnsclient.CodeBadParam},
		{fmt.Sprintf("/v1/repl/segment/%s?off=%d", g.File, g.Size+1), 400, rdnsclient.CodeBadParam},
		{fmt.Sprintf("/v1/repl/tail/%s?off=%d", w.ID, w.TailSize+1), 400, rdnsclient.CodeBadParam},
		// A typo must not silently re-read from offset 0, nor a parameter
		// of one feed route pass on another.
		{"/v1/repl/segment/" + g.File + "?of=4096", 400, rdnsclient.CodeBadParam},
		{"/v1/repl/segment/" + g.File + "?file=" + w.TailFile, 400, rdnsclient.CodeBadParam},
		{"/v1/repl/tail/" + w.ID + "?offset=0", 400, rdnsclient.CodeBadParam},
		{"/v1/repl/manifest?n=1", 400, rdnsclient.CodeBadParam},
	}
	for _, tc := range cases {
		rec := getRepl(t, h, tc.path)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.path, rec.Code, tc.status, rec.Body)
			continue
		}
		var env rdnsclient.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != tc.code {
			t.Errorf("%s: body %s, want code %q", tc.path, rec.Body, tc.code)
		}
	}

	// Every rejection above counted as a feed error; the successful
	// manifest fetches as plain fetches.
	if errs := reg.Counter(metricReplErrors).Value(); errs != uint64(len(cases)) {
		t.Fatalf("repl error counter %d, want %d", errs, len(cases))
	}
	if fetches := reg.Counter(metricReplFetches).Value(); fetches <= uint64(len(cases)) {
		t.Fatalf("repl fetch counter %d", fetches)
	}
}

// TestReplAdmission: the feed is exempt from the per-client token bucket
// (a replica must catch up on a primary shedding query load). That it stays
// behind the ACL like everything else is TestRouteTableContract's.
func TestReplAdmission(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := replFixture(t, Config{Sink: reg, Admission: AdmissionConfig{
		RatePerSec: 1, Burst: 2,
		Allow: []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/24")},
	}})
	h := srv.Handler()

	// httptest requests come from 192.0.2.1: inside the ACL. The query
	// surface exhausts its 2-token bucket...
	var limited bool
	for i := 0; i < 5; i++ {
		rec := getRepl(t, h, "/v1/days")
		if rec.Code == http.StatusTooManyRequests {
			limited = true
		}
	}
	if !limited {
		t.Fatal("query surface never rate-limited")
	}
	// ...while the feed keeps answering.
	for i := 0; i < 5; i++ {
		if rec := getRepl(t, h, "/v1/repl/manifest"); rec.Code != 200 {
			t.Fatalf("bucket-exempt feed fetch %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
}

// TestReplBytesMetric: served feed bytes are accounted.
func TestReplBytesMetric(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := replFixture(t, Config{Sink: reg})
	h := srv.Handler()
	fm := replManifestOf(t, h)
	g := fm.Writers[0].Segments[0]
	w := fm.Writers[0]

	if rec := getRepl(t, h, "/v1/repl/segment/"+g.File); rec.Code != 200 {
		t.Fatalf("segment fetch: %d", rec.Code)
	}
	if rec := getRepl(t, h, "/v1/repl/tail/"+w.ID); rec.Code != 200 {
		t.Fatalf("tail fetch: %d", rec.Code)
	}
	if got := reg.Counter(metricReplBytes).Value(); got != uint64(g.Size+w.TailSize) {
		t.Fatalf("repl bytes counter %d, want %d", got, g.Size+w.TailSize)
	}
}

// TestReplStatsReplicaField: a replica daemon's lag report rides
// /v1/stats; primaries (no SetReplicaStatus) omit the field.
func TestReplStatsReplicaField(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, _ := replFixture(t, Config{})
	h := srv.Handler()

	var sr rdnsclient.StatsResponse
	rec := getRepl(t, h, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.Replica != nil {
		t.Fatalf("primary stats: %s err=%v", rec.Body, err)
	}

	srv.SetReplicaStatus(func() *rdnsclient.ReplicaStats {
		return &rdnsclient.ReplicaStats{Source: "http://primary:8077", Syncs: 3, BytesBehind: 42}
	})
	rec = getRepl(t, h, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.Replica == nil {
		t.Fatalf("replica stats: %s err=%v", rec.Body, err)
	}
	if sr.Replica.BytesBehind != 42 || sr.Replica.Syncs != 3 || sr.Replica.Source == "" {
		t.Fatalf("replica lag report: %+v", sr.Replica)
	}
}

// TestReplWindowBounds: a window larger than the feed's chunk cap is
// clamped to it, not refused, while a malformed window or writer id is a
// 400 bad_param before the store is read.
func TestReplWindowBounds(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	srv, _ := replFixture(t, Config{})
	h := srv.Handler()
	g := replManifestOf(t, h).Writers[0].Segments[0]

	rec := getRepl(t, h, fmt.Sprintf("/v1/repl/segment/%s?n=%d", g.File, 4*maxReplChunk))
	if rec.Code != 200 || int64(rec.Body.Len()) != g.Size {
		t.Fatalf("oversized window: status %d, %d bytes, want 200 and the whole %d-byte segment", rec.Code, rec.Body.Len(), g.Size)
	}
	for _, path := range []string{
		"/v1/repl/tail/",
		"/v1/repl/tail/main?off=-1",
		"/v1/repl/tail/main?n=0",
	} {
		rec := getRepl(t, h, path)
		var env rdnsclient.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != 400 || env.Error.Code != rdnsclient.CodeBadParam {
			t.Errorf("GET %s: status %d, body %s; want 400 bad_param", path, rec.Code, rec.Body)
		}
	}
}
