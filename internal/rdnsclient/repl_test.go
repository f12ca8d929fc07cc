package rdnsclient

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/testutil"
)

// fakeFeed is a minimal primary-side feed: one 64-byte segment and one
// 32-byte tail, with a switch to make every endpoint shed once.
type fakeFeed struct {
	segment  []byte
	tail     []byte
	tailFile string
	shedOnce atomic.Bool
}

func newFakeFeed() *fakeFeed {
	f := &fakeFeed{tailFile: "tail-main-2.log"}
	for i := 0; i < 64; i++ {
		f.segment = append(f.segment, byte(i))
	}
	for i := 0; i < 32; i++ {
		f.tail = append(f.tail, byte(0x80+i))
	}
	return f
}

func (f *fakeFeed) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.shedOnce.CompareAndSwap(true, false) {
			w.Header().Set("Retry-After", "2")
			writeEnvelope(w, http.StatusServiceUnavailable, CodeOverloaded, "shedding")
			return
		}
		off, _ := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		window := func(data []byte) []byte {
			if off > int64(len(data)) {
				return nil
			}
			rest := data[off:]
			if n > 0 && n < len(rest) {
				rest = rest[:n]
			}
			return rest
		}
		switch {
		case r.URL.Path == "/v1/repl/manifest":
			json.NewEncoder(w).Encode(ReplManifest{Generation: 4, FeedManifest: histstore.FeedManifest{
				BaseInterval: 4, Snapshots: 6,
				LastSnap: time.Date(2020, 3, 6, 0, 0, 0, 0, time.UTC), TotalBytes: 96,
				Writers: []histstore.FeedWriter{{
					ID: "main", FileSeq: 3, TailFile: f.tailFile, TailFirst: 4, TailSize: int64(len(f.tail)),
					Segments: []histstore.FeedSegment{{File: "seg-main-1.seg", First: 0, Count: 4, Size: int64(len(f.segment)), CRC: 0xdeadbeef}},
				}},
			}})
		case r.URL.Path == "/v1/repl/segment/seg-main-1.seg":
			w.Header().Set("X-Repl-Size", strconv.Itoa(len(f.segment)))
			w.Write(window(f.segment))
		case r.URL.Path == "/v1/repl/tail/main":
			if file := r.URL.Query().Get("file"); file != "" && file != f.tailFile {
				w.Header().Set("X-Repl-Tail-File", f.tailFile)
				w.Header().Set("X-Repl-Tail-First", "4")
				w.Header().Set("X-Repl-Tail-Size", strconv.Itoa(len(f.tail)))
				writeEnvelope(w, http.StatusConflict, CodeReplChanged, "tail changed")
				return
			}
			w.Header().Set("X-Repl-Tail-File", f.tailFile)
			w.Header().Set("X-Repl-Tail-First", "4")
			w.Header().Set("X-Repl-Tail-Size", strconv.Itoa(len(f.tail)))
			w.Write(window(f.tail))
		default:
			writeEnvelope(w, http.StatusNotFound, CodeNotFound, r.URL.Path)
		}
	})
}

// TestReplClientRoundTrip: the three feed methods decode the wire
// contract — manifest JSON, X-Repl-Size, the tail identity headers — and
// chunked windows return exactly the requested bytes.
func TestReplClientRoundTrip(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	feed := newFakeFeed()
	ts := httptest.NewServer(feed.handler())
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	fm, err := c.ReplManifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Generation != 4 || len(fm.Writers) != 1 || fm.Writers[0].Segments[0].CRC != 0xdeadbeef {
		t.Fatalf("manifest: %+v", fm)
	}

	chunk, size, err := c.ReplSegment(ctx, "seg-main-1.seg", 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if size != 64 || len(chunk) != 8 || chunk[0] != 16 {
		t.Fatalf("segment window: size=%d chunk=%v", size, chunk)
	}

	delta, info, err := c.ReplTail(ctx, "main", feed.tailFile, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.File != feed.tailFile || info.First != 4 || info.Size != 32 {
		t.Fatalf("tail info: %+v", info)
	}
	if len(delta) != 2 || delta[0] != 0x80+30 {
		t.Fatalf("tail delta: %v", delta)
	}
}

// TestReplClientTailChanged: a stale tail pin surfaces the 409 as a
// typed APIError carrying CodeReplChanged — the signal Sync uses to
// refetch the manifest.
func TestReplClientTailChanged(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	ts := httptest.NewServer(newFakeFeed().handler())
	defer ts.Close()
	_, _, err := New(ts.URL).ReplTail(context.Background(), "main", "tail-main-0.log", 0, 0)
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusConflict || ae.Code != CodeReplChanged {
		t.Fatalf("stale pin error: %v", err)
	}
}

// TestReplClientRetries: the binary fetch path shares the 429/503
// Retry-After loop with the JSON path.
func TestReplClientRetries(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	feed := newFakeFeed()
	ts := httptest.NewServer(feed.handler())
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, WithRetries(1, 10*time.Second))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	feed.shedOnce.Store(true)
	chunk, size, err := c.ReplSegment(context.Background(), "seg-main-1.seg", 0, 0)
	if err != nil || size != 64 || len(chunk) != 64 {
		t.Fatalf("retried fetch: %d/%d bytes, err %v", len(chunk), size, err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want one 2s Retry-After wait", slept)
	}

	// With the budget exhausted the shed surfaces typed.
	c2 := New(ts.URL, WithRetries(0, 0))
	feed.shedOnce.Store(true)
	if _, _, err := c2.ReplSegment(context.Background(), "seg-main-1.seg", 0, 0); !IsOverloaded(err) {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// TestReplClientBadHeaders: mangled identity headers are loud decode
// errors, not zero values a replica would happily commit.
func TestReplClientBadHeaders(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// 200 with no X-Repl-* headers at all.
		w.Write([]byte("junk"))
	}))
	defer ts.Close()
	c := New(ts.URL)
	if _, _, err := c.ReplSegment(context.Background(), "seg", 0, 0); err == nil {
		t.Fatal("missing X-Repl-Size accepted")
	}
	if _, _, err := c.ReplTail(context.Background(), "main", "", 0, 0); err == nil {
		t.Fatal("missing tail identity headers accepted")
	}
}
