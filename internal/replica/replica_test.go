package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
)

var campaignStart = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

// dayRecords synthesizes day's record set: per /24 block, four stable
// devices (brians-iphone among them) plus one address whose name churns
// deterministically with the day index.
func dayRecords(day, blocks int) scanengine.RecordSet {
	stable := []string{"brians-iphone", "alices-laptop", "printer", "camera"}
	recs := scanengine.RecordSet{}
	for b := 0; b < blocks; b++ {
		for d, name := range stable {
			ip := dnswire.IPv4{10, 0, byte(b + 1), byte(10 + d)}
			recs[ip] = dnswire.MustName(fmt.Sprintf("%s.b%d.lan.example.net", name, b))
		}
		churn := dnswire.IPv4{10, 0, byte(b + 1), 200}
		recs[churn] = dnswire.MustName(fmt.Sprintf("dhcp-%d.dyn.example.net", (day*31+b)%997))
	}
	return recs
}

func appendDays(tb testing.TB, st *histstore.Store, fromDay, n, blocks int) {
	tb.Helper()
	for d := fromDay; d < fromDay+n; d++ {
		if err := st.Append(campaignStart.AddDate(0, 0, d), dayRecords(d, blocks)); err != nil {
			tb.Fatalf("append day %d: %v", d, err)
		}
	}
}

// seedPrimary opens a fresh store at dir and appends days of synthetic
// history.
func seedPrimary(tb testing.TB, dir string, days, blocks int) *histstore.Store {
	tb.Helper()
	st, err := histstore.Open(dir, histstore.WithCache(256), histstore.WithBaseInterval(4))
	if err != nil {
		tb.Fatalf("open primary: %v", err)
	}
	appendDays(tb, st, 0, days, blocks)
	return st
}

// inprocTransport drives an http.Handler without sockets, the same
// pattern cmd/rdnsload uses: replication tests pull megabytes through
// the feed and must not depend on listener lifecycle.
type inprocTransport struct{ h http.Handler }

func (tr inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := req.Clone(req.Context())
	r2.RemoteAddr = "127.0.0.1:0"
	if r2.Body == nil {
		r2.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, r2)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func feedClient(rt http.RoundTripper) *rdnsclient.Client {
	return rdnsclient.New("http://primary.inproc",
		rdnsclient.WithHTTPClient(&http.Client{Transport: rt}))
}

// roundTripFunc adapts a function to http.RoundTripper for fault and
// chaos injection.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func blockPrefixes(blocks int) []dnswire.Prefix {
	var ps []dnswire.Prefix
	for b := 0; b < blocks; b++ {
		ps = append(ps, dnswire.Prefix{Addr: dnswire.IPv4{10, 0, byte(b + 1), 0}, Bits: 24})
	}
	return ps
}

// jsonEq compares two query results through their JSON encoding — the
// wire shape the v1 API serves, so "equal" here means bit-identical
// responses.
func jsonEq(tb testing.TB, what string, primary, replica any) {
	tb.Helper()
	jp, err := json.Marshal(primary)
	if err != nil {
		tb.Fatalf("%s: marshal primary: %v", what, err)
	}
	jr, err := json.Marshal(replica)
	if err != nil {
		tb.Fatalf("%s: marshal replica: %v", what, err)
	}
	if !bytes.Equal(jp, jr) {
		tb.Fatalf("%s diverges:\nprimary: %s\nreplica: %s", what, jp, jr)
	}
}

// compareStores proves every query API answers bit-identically on the
// primary and replica stores: snapshot times, point lookups (with writer
// attribution), full and paged range scans, churn summaries, and the
// name index.
func compareStores(tb testing.TB, p, r *histstore.Store, blocks int) {
	tb.Helper()
	pt, rt := p.Times(), r.Times()
	if len(pt) != len(rt) {
		tb.Fatalf("snapshot counts diverge: primary %d, replica %d", len(pt), len(rt))
	}
	for i := range pt {
		if !pt[i].Equal(rt[i]) {
			tb.Fatalf("snapshot %d diverges: primary %v, replica %v", i, pt[i], rt[i])
		}
	}
	if p.BaseInterval() != r.BaseInterval() {
		tb.Fatalf("base interval diverges: %d vs %d", p.BaseInterval(), r.BaseInterval())
	}
	if len(pt) == 0 {
		return
	}
	from, to := pt[0], pt[len(pt)-1]
	ctx := context.Background()
	for _, p24 := range blockPrefixes(blocks) {
		rowsP, errP := p.Range(p24, from, to)
		rowsR, errR := r.Range(p24, from, to)
		if errP != nil || errR != nil {
			tb.Fatalf("range %s: primary err %v, replica err %v", p24, errP, errR)
		}
		jsonEq(tb, fmt.Sprintf("range %s", p24), rowsP, rowsR)

		churnP, errP := p.ChurnContext(context.Background(), p24, from, to)
		churnR, errR := r.ChurnContext(context.Background(), p24, from, to)
		if errP != nil || errR != nil {
			tb.Fatalf("churn %s: primary err %v, replica err %v", p24, errP, errR)
		}
		jsonEq(tb, fmt.Sprintf("churn %s", p24), churnP, churnR)

		// Paged walk with a tiny limit: cursors and page boundaries must
		// agree, or a paginating client would see a different history
		// depending on which end of the fleet answered.
		var curP, curR histstore.RangeCursor
		for page := 0; ; page++ {
			rowsP, nextP, moreP, errP := p.RangePage(ctx, p24, from, to, curP, 3)
			rowsR, nextR, moreR, errR := r.RangePage(ctx, p24, from, to, curR, 3)
			if errP != nil || errR != nil {
				tb.Fatalf("range page %d %s: primary err %v, replica err %v", page, p24, errP, errR)
			}
			jsonEq(tb, fmt.Sprintf("range page %d %s", page, p24), rowsP, rowsR)
			if moreP != moreR {
				tb.Fatalf("range page %d %s: more diverges: %v vs %v", page, p24, moreP, moreR)
			}
			if !moreP {
				break
			}
			curP, curR = nextP, nextR
		}
	}
	for _, tm := range pt {
		for _, p24 := range blockPrefixes(blocks) {
			for _, last := range []byte{10, 12, 200, 250} { // stable, stable, churn, absent
				ip := dnswire.IPv4{p24.Addr[0], p24.Addr[1], p24.Addr[2], last}
				nameP, okP, errP := p.At(ip, tm)
				nameR, okR, errR := r.At(ip, tm)
				if errP != nil || errR != nil {
					tb.Fatalf("at %s@%v: primary err %v, replica err %v", ip, tm, errP, errR)
				}
				if okP != okR || nameP.String() != nameR.String() {
					tb.Fatalf("at %s@%v diverges: primary (%s,%v), replica (%s,%v)",
						ip, tm, nameP, okP, nameR, okR)
				}
			}
		}
	}
	for _, tok := range []string{"brian", "printer", "dhcp", "nosuchtoken"} {
		jsonEq(tb, fmt.Sprintf("findname %q", tok), p.FindName(tok), r.FindName(tok))
	}
}

func openReplica(tb testing.TB, y *Syncer) *histstore.Store {
	tb.Helper()
	st, err := y.Open(histstore.WithCache(256))
	if err != nil {
		tb.Fatalf("open replica: %v", err)
	}
	return st
}

func mustSync(tb testing.TB, y *Syncer) bool {
	tb.Helper()
	changed, err := y.Sync(context.Background())
	if err != nil {
		tb.Fatalf("sync: %v", err)
	}
	return changed
}

// TestReplicaBitIdentical is the seeded consistency property: a replica
// synced to the primary's generation answers every query API
// bit-identically — before compaction, after compaction reshapes the
// file set, and after further appends.
func TestReplicaBitIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 3
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 11, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()

	y, err := New(Config{
		Source: "http://primary.inproc",
		Dir:    filepath.Join(dir, "replica"),
		Client: feedClient(inprocTransport{srv.Handler()}),
		Chunk:  512, // small: every file takes several resumable range fetches
	})
	if err != nil {
		t.Fatal(err)
	}
	if y.Synced() {
		t.Fatal("Synced true before any sync")
	}
	if !mustSync(t, y) {
		t.Fatal("first sync reported no change")
	}
	if !y.Synced() {
		t.Fatal("Synced false after a committed sync")
	}
	rep := openReplica(t, y)
	compareStores(t, primary, rep, blocks)
	rep.Close()

	// A caught-up sync changes nothing.
	if mustSync(t, y) {
		t.Fatal("caught-up sync reported a change")
	}

	// Compaction reshapes the primary's file set (tail sealed into a
	// segment, fresh tail); appends grow the new tail. The replica must
	// follow both and stay bit-identical.
	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	appendDays(t, primary, 11, 5, blocks)
	if !mustSync(t, y) {
		t.Fatal("post-compaction sync reported no change")
	}
	rep = openReplica(t, y)
	compareStores(t, primary, rep, blocks)
	rep.Close()

	st := y.Status()
	if st == nil || st.Syncs != 3 || st.SyncErrors != 0 || st.BytesBehind != 0 {
		t.Fatalf("status after three clean syncs: %+v", st)
	}
	if st.SegmentsFetched == 0 || st.BytesFetched == 0 {
		t.Fatalf("status counted no fetch work: %+v", st)
	}
}

// TestReplicaBitIdenticalMidCompaction parks the primary's compaction at
// the sealed pause point (segment staged, manifest not yet swapped) and
// proves a replica synced at that instant sees one consistent committed
// generation — the pre-splice one — bit-identically.
func TestReplicaBitIdenticalMidCompaction(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 2
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 9, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()

	hold := make(chan struct{})
	parked := make(chan struct{})
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.sealed" {
			close(parked)
			<-hold
		}
		return nil
	})
	defer testutil.SetFaultHook(nil)

	compactDone := make(chan error, 1)
	go func() {
		_, err := primary.Compact(context.Background(), histstore.CompactOptions{})
		compactDone <- err
	}()
	<-parked

	y, err := New(Config{
		Source: "http://primary.inproc",
		Dir:    filepath.Join(dir, "replica"),
		Client: feedClient(inprocTransport{srv.Handler()}),
		Chunk:  256,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, y)
	rep := openReplica(t, y)
	compareStores(t, primary, rep, blocks)
	rep.Close()

	close(hold)
	if err := <-compactDone; err != nil {
		t.Fatalf("compact: %v", err)
	}

	// After the splice commits, the next sync follows the swapped layout.
	mustSync(t, y)
	rep = openReplica(t, y)
	compareStores(t, primary, rep, blocks)
	rep.Close()
}

// TestReplicaTailSwapMidSync races a compaction between the manifest
// fetch and the tail pull: the feed answers 409 repl_changed for the
// pinned (now superseded) tail, and Sync must absorb it by refetching
// the manifest — one Sync call, no surfaced error, bit-identical result.
func TestReplicaTailSwapMidSync(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 2
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 10, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()

	inner := inprocTransport{srv.Handler()}
	var compactOnce sync.Once
	var saw409 atomic.Int64
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/v1/repl/tail/"+primary.WriterID() {
			// First tail pull of the run: seal the tail underneath it.
			compactOnce.Do(func() {
				if _, err := primary.Compact(req.Context(), histstore.CompactOptions{}); err != nil {
					t.Errorf("compact: %v", err)
				}
			})
		}
		resp, err := inner.RoundTrip(req)
		if err == nil && resp.StatusCode == http.StatusConflict {
			saw409.Add(1)
		}
		return resp, err
	})

	y, err := New(Config{
		Source: "http://primary.inproc",
		Dir:    filepath.Join(dir, "replica"),
		Client: feedClient(rt),
		Chunk:  256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mustSync(t, y) {
		t.Fatal("sync reported no change")
	}
	if saw409.Load() == 0 {
		t.Fatal("the tail swap never produced a 409 repl_changed — the race was not exercised")
	}
	if st := y.Status(); st.SyncErrors != 0 {
		t.Fatalf("the absorbed retry was counted as a sync error: %+v", st)
	}
	rep := openReplica(t, y)
	compareStores(t, primary, rep, blocks)
	rep.Close()
}

// TestReplicaCrashRestartMidPull kills a replica's pull mid-transfer
// (transport dies after a few requests) and proves the directory still
// opens to a consistent generation — a prefix of the primary's history —
// and that a fresh Syncer (a restarted process: no in-memory state)
// recovers to full bit-identical consistency by resuming from local
// bytes.
func TestReplicaCrashRestartMidPull(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 2
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 9, blocks)
	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	appendDays(t, primary, 9, 2, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	inner := inprocTransport{srv.Handler()}
	repDir := filepath.Join(dir, "replica")

	// Generation 1: a clean full sync.
	y1, err := New(Config{Dir: repDir, Client: feedClient(inner), Chunk: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, y1)
	gen1Snaps := 11

	// The primary grows; a replica process starts pulling the delta and
	// dies mid-pull.
	appendDays(t, primary, 11, 4, blocks)
	var budget atomic.Int64
	budget.Store(2) // manifest + one 128-byte tail chunk, then the "crash"
	dying := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if budget.Add(-1) < 0 {
			return nil, fmt.Errorf("injected crash: transport down")
		}
		return inner.RoundTrip(req)
	})
	y2, err := New(Config{Dir: repDir, Client: feedClient(dying), Chunk: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y2.Sync(context.Background()); err == nil {
		t.Fatal("sync survived the injected crash")
	}
	if st := y2.Status(); st == nil || st.SyncErrors == 0 {
		t.Fatalf("crashed sync not reflected in status: %+v", st)
	}

	// The killed replica's directory still opens read-only to a
	// consistent generation: the committed manifest plus whatever
	// frame-complete tail prefix landed. Its snapshot times must be a
	// prefix of the primary's, and every fully-shipped day must answer
	// identically (the final day may be a partial group and is excluded).
	rep, err := histstore.Open(repDir, histstore.WithReadOnly(), histstore.WithCache(256))
	if err != nil {
		t.Fatalf("crashed replica directory does not open: %v", err)
	}
	pt, rt := primary.Times(), rep.Times()
	if len(rt) < gen1Snaps || len(rt) > len(pt) {
		t.Fatalf("crashed replica has %d snapshots; want between %d and %d", len(rt), gen1Snaps, len(pt))
	}
	for i := range rt {
		if !rt[i].Equal(pt[i]) {
			t.Fatalf("snapshot %d is not a primary prefix: %v vs %v", i, rt[i], pt[i])
		}
	}
	for i := 0; i < len(rt)-1; i++ {
		for _, p24 := range blockPrefixes(blocks) {
			for _, last := range []byte{10, 200} {
				ip := dnswire.IPv4{p24.Addr[0], p24.Addr[1], p24.Addr[2], last}
				nameP, okP, errP := primary.At(ip, pt[i])
				nameR, okR, errR := rep.At(ip, rt[i])
				if errP != nil || errR != nil || okP != okR || nameP.String() != nameR.String() {
					t.Fatalf("crashed replica day %d diverges at %s: (%s,%v,%v) vs (%s,%v,%v)",
						i, ip, nameP, okP, errP, nameR, okR, errR)
				}
			}
		}
	}
	rep.Close()

	// Restart: a fresh Syncer on the same directory resumes from the
	// local bytes and converges to full bit-identical consistency.
	y3, err := New(Config{Dir: repDir, Client: feedClient(inner), Chunk: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, y3)
	rep = openReplica(t, y3)
	compareStores(t, primary, rep, blocks)
	rep.Close()
}

// TestReplicaCorruptFeedLoud serves the replica a bit-flipped segment
// and a truncated tail: both must be loud sync errors that leave no
// committed damage, and a clean retry must converge.
func TestReplicaCorruptFeedLoud(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 2
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 9, blocks)
	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	appendDays(t, primary, 9, 2, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	inner := inprocTransport{srv.Handler()}

	var mode atomic.Int32 // 0: clean, 1: flip segment bytes, 2: truncate tail bytes
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := inner.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		switch {
		case mode.Load() == 1 && len(req.URL.Path) > len("/v1/repl/segment/") && req.URL.Path[:len("/v1/repl/segment/")] == "/v1/repl/segment/":
			body := readAll(t, resp)
			if len(body) > 0 {
				body[len(body)/2] ^= 0x40
			}
			resp.Body = newBody(body)
		case mode.Load() == 2 && len(req.URL.Path) > len("/v1/repl/tail/") && req.URL.Path[:len("/v1/repl/tail/")] == "/v1/repl/tail/":
			// Halve every delta response: resumable fetches re-request the
			// missing suffix, so the pull either converges to a correct
			// tail or — when the feed finally serves zero bytes — fails
			// loudly. It must never commit a short tail silently.
			body := readAll(t, resp)
			resp.Body = newBody(body[:len(body)/2])
		}
		return resp, err
	})

	repDir := filepath.Join(dir, "replica")
	y, err := New(Config{Dir: repDir, Client: feedClient(rt), Chunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mode.Store(1)
	if _, err := y.Sync(context.Background()); err == nil {
		t.Fatal("bit-flipped segment synced without an error")
	}
	mode.Store(2)
	if _, err := y.Sync(context.Background()); err == nil {
		t.Fatal("truncated tail synced without an error")
	}
	mode.Store(0)
	mustSync(t, y)
	rep := openReplica(t, y)
	compareStores(t, primary, rep, blocks)
	rep.Close()
}

func readAll(tb testing.TB, resp *http.Response) []byte {
	tb.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tb.Fatalf("reading response body: %v", err)
	}
	return buf.Bytes()
}

func newBody(b []byte) *bodyCloser { return &bodyCloser{Reader: bytes.NewReader(b)} }

type bodyCloser struct{ *bytes.Reader }

func (*bodyCloser) Close() error { return nil }

// TestReplicaHostileManifestNames proves a lying feed cannot steer the
// syncer outside its store directory: a manifest carrying path-traversal
// file names, a malformed writer ID, or a writer count other than one
// fails validation before the syncer touches the filesystem — nothing is
// statted, removed, written, or renamed at the joined paths, and
// pre-existing files the traversal points at survive untouched. A count
// other than one is refused with a *histstore.WriterError naming the
// writer listed first.
func TestReplicaHostileManifestNames(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 9, 1)
	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	inner := inprocTransport{srv.Handler()}

	clean, err := feedClient(inner).ReplManifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Writers) == 0 || len(clean.Writers[0].Segments) == 0 {
		t.Fatalf("seed manifest has no segments: %+v", clean)
	}
	// Pre-create the traversal target: a hostile delete-then-overwrite
	// must be observable, not just a hostile create.
	victim := filepath.Join(dir, "victim")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}

	id := clean.Writers[0].ID
	cases := []struct {
		name   string
		mutate func(m *rdnsclient.ReplManifest)
		writer *string // the writer a *histstore.WriterError must name
	}{
		{"segment traversal", func(m *rdnsclient.ReplManifest) { m.Writers[0].Segments[0].File = "../victim" }, nil},
		{"segment backslash", func(m *rdnsclient.ReplManifest) { m.Writers[0].Segments[0].File = `..\victim` }, nil},
		{"segment dotdot", func(m *rdnsclient.ReplManifest) { m.Writers[0].Segments[0].File = ".." }, nil},
		{"tail traversal", func(m *rdnsclient.ReplManifest) { m.Writers[0].TailFile = "../victim" }, nil},
		{"tail reserved name", func(m *rdnsclient.ReplManifest) { m.Writers[0].TailFile = "MANIFEST" }, nil},
		{"writer id traversal", func(m *rdnsclient.ReplManifest) { m.Writers[0].ID = "../w" }, nil},
		{"second writer", func(m *rdnsclient.ReplManifest) {
			w := m.Writers[0]
			w.ID = "zulu"
			m.Writers = append(m.Writers, w)
		}, &id},
		{"no writer", func(m *rdnsclient.ReplManifest) { m.Writers = nil }, new(string)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hostile := clean
			hostile.Writers = append([]histstore.FeedWriter(nil), clean.Writers...)
			hostile.Writers[0].Segments = append([]histstore.FeedSegment(nil), clean.Writers[0].Segments...)
			tc.mutate(&hostile)
			data, err := json.Marshal(hostile)
			if err != nil {
				t.Fatal(err)
			}
			rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
				if req.URL.Path == "/v1/repl/manifest" {
					return jsonResponse(req, data), nil
				}
				return inner.RoundTrip(req)
			})
			repDir := filepath.Join(t.TempDir(), "replica")
			y, err := New(Config{Source: "http://primary.inproc", Dir: repDir, Client: feedClient(rt)})
			if err != nil {
				t.Fatal(err)
			}
			_, err = y.Sync(context.Background())
			if err == nil {
				t.Fatal("hostile manifest synced without an error")
			}
			var we *histstore.WriterError
			if tc.writer != nil && (!errors.As(err, &we) || we.Writer != *tc.writer) {
				t.Fatalf("writer count: %v, want a *histstore.WriterError naming %q", err, *tc.writer)
			}
			// Validation fires before MkdirAll: the replica directory must
			// not even exist, let alone hold staged files.
			if _, err := os.Stat(repDir); !os.IsNotExist(err) {
				t.Fatalf("syncer touched the filesystem before rejecting the manifest: stat %v", err)
			}
			got, err := os.ReadFile(victim)
			if err != nil || string(got) != "precious" {
				t.Fatalf("traversal target modified: %q, %v", got, err)
			}
		})
	}
}

// TestReplicaConfig covers constructor validation.
func TestReplicaConfig(t *testing.T) {
	if _, err := New(Config{Source: "http://x"}); err == nil {
		t.Fatal("New accepted a missing Dir")
	}
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("New accepted a missing Source and Client")
	}
	y, err := New(Config{Source: "http://x", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if y.Status() != nil {
		t.Fatal("Status non-nil before any sync attempt")
	}
	if _, err := y.Open(); err == nil {
		t.Fatal("Open succeeded before any committed sync")
	}
}

// Synced reports whether at least one sync has committed, i.e. the local
// directory holds an openable store generation.
func (y *Syncer) Synced() bool {
	y.statMu.Lock()
	defer y.statMu.Unlock()
	return y.synced
}

// Open opens the synced local store read-only, with opts applied after
// the read-only default — the store a replica daemon serves. It fails
// with histstore.ErrNoStore before the first committed sync.
func (y *Syncer) Open(opts ...histstore.Option) (*histstore.Store, error) {
	all := append([]histstore.Option{histstore.WithReadOnly()}, opts...)
	return histstore.Open(y.dir, all...)
}

// TestReplicaBuildsItsOwnSidecars: a replica of a single-writer store
// gives every segment it accepts a given-name sidecar built from the
// verified bytes — the same bytes the primary's compaction wrote — and
// never asks the feed for one. A damaged local sidecar is rebuilt by the
// next process's first sync, and sidecars no segment owns are swept.
func TestReplicaBuildsItsOwnSidecars(t *testing.T) {
	const blocks = 3
	dir := t.TempDir()
	pdir, rdir := filepath.Join(dir, "primary"), filepath.Join(dir, "replica")
	primary := seedPrimary(t, pdir, 11, blocks)
	for _, days := range []int{5, 6} {
		if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
			t.Fatalf("compact: %v", err)
		}
		appendDays(t, primary, primary.Len(), days, blocks)
	}
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	var asked []string
	var askedMu sync.Mutex
	h := srv.Handler()
	newSyncer := func() *Syncer {
		y, err := New(Config{
			Source: "http://primary.inproc",
			Dir:    rdir,
			Client: feedClient(roundTripFunc(func(r *http.Request) (*http.Response, error) {
				askedMu.Lock()
				asked = append(asked, r.URL.String())
				askedMu.Unlock()
				return inprocTransport{h}.RoundTrip(r)
			})),
		})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	fm, err := primary.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	segs := fm.Writers[0].Segments
	if len(segs) != 2 {
		t.Fatalf("primary holds %d segments, want 2", len(segs))
	}
	sameSidecars := func(what string) {
		t.Helper()
		for _, g := range segs {
			name := histstore.SidecarName(g.File)
			want, err := os.ReadFile(filepath.Join(pdir, name))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(filepath.Join(rdir, name)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: replica sidecar %s is not the primary's (%d vs %d bytes, %v)", what, name, len(got), len(want), err)
			}
		}
	}

	mustSync(t, newSyncer())
	sameSidecars("first sync")
	for _, u := range asked {
		if strings.Contains(u, histstore.SidecarSuffix) {
			t.Fatalf("the replica fetched a sidecar: %s", u)
		}
	}

	// A new process finds one sidecar damaged and strays around it.
	damaged := filepath.Join(rdir, histstore.SidecarName(segs[1].File))
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	strays := []string{"seg-main-99" + histstore.SidecarSuffix, histstore.SidecarName(segs[0].File) + ".tmp"}
	for _, f := range append(strays, "") {
		path, body := filepath.Join(rdir, f), []byte("stray")
		if f == "" {
			path, body = damaged, data
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustSync(t, newSyncer())
	sameSidecars("after a restart over a damaged sidecar")
	for _, f := range strays {
		if _, err := os.Stat(filepath.Join(rdir, f)); !os.IsNotExist(err) {
			t.Errorf("stray %s survived the sync (%v)", f, err)
		}
	}
	rep, err := histstore.Open(rdir, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	compareStores(t, primary, rep, blocks)
}
