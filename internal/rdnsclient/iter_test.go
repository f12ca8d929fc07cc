package rdnsclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"rdnsprivacy/internal/testutil"
)

// pagedRangeServer serves total rows in pages of pageSize, injecting one
// pushback response (status + Retry-After) before the given page numbers
// (0-based). Each injected pushback fires once: the retry of the same
// cursor succeeds, which is exactly the mid-iteration weather a scan over
// a busy daemon sees.
func pagedRangeServer(total, pageSize int, pushback map[int]int) *httptest.Server {
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	fired := map[int]bool{}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := 0
		if cur := r.URL.Query().Get("cursor"); cur != "" {
			start, _ = strconv.Atoi(cur)
		}
		page := start / pageSize
		if status, ok := pushback[page]; ok && !fired[page] {
			fired[page] = true
			w.Header().Set("Retry-After", "1")
			code := CodeRateLimited
			if status == http.StatusServiceUnavailable {
				code = CodeOverloaded
			}
			writeEnvelope(w, status, code, fmt.Sprintf("pushback before page %d", page))
			return
		}
		resp := RangeResponse{Prefix: r.URL.Query().Get("prefix"), From: day, To: day}
		for i := start; i < total && len(resp.Rows) < pageSize; i++ {
			resp.Rows = append(resp.Rows, RangeRow{Date: day, IP: fmt.Sprintf("10.0.1.%d", i), PTR: "x.example.net."})
		}
		resp.Count = len(resp.Rows)
		if start+len(resp.Rows) < total {
			resp.NextCursor = strconv.Itoa(start + len(resp.Rows))
		}
		json.NewEncoder(w).Encode(resp)
	}))
}

// TestRangeIterRetriesMidIteration: a 429 before page 1 and a shedding
// 503 before page 2 are absorbed by the per-request retry loop — the
// iterator neither drops nor duplicates a row, and the injected sleeper
// observes exactly the two Retry-After waits.
func TestRangeIterRetriesMidIteration(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ts := pagedRangeServer(10, 3, map[int]int{
		1: http.StatusTooManyRequests,
		2: http.StatusServiceUnavailable,
	})
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, WithRetries(2, 10*time.Second))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	rows, err := c.RangeAll(context.Background(), RangeQuery{Prefix: "10.0.1.0/24", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r.IP != fmt.Sprintf("10.0.1.%d", i) {
			t.Fatalf("row %d is %s: pushback skipped or duplicated rows", i, r.IP)
		}
	}
	if len(slept) != 2 || slept[0] != time.Second || slept[1] != time.Second {
		t.Fatalf("slept %v, want two 1s Retry-After waits", slept)
	}
}

// TestRangeIterRetriesExhausted: when the pushback outlasts the retry
// budget the iterator stops at the failing page, surfaces the typed
// error, and stays stopped.
func TestRangeIterRetriesExhausted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cursor") != "" { // every page after the first sheds
			w.Header().Set("Retry-After", "1")
			writeEnvelope(w, http.StatusServiceUnavailable, CodeOverloaded, "shedding")
			return
		}
		json.NewEncoder(w).Encode(RangeResponse{
			Prefix: "10.0.1.0/24", From: day, To: day, Count: 1,
			Rows:       []RangeRow{{Date: day, IP: "10.0.1.0", PTR: "x.example.net."}},
			NextCursor: "1",
		})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(1, time.Second))
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	it := c.Range(RangeQuery{Prefix: "10.0.1.0/24"})
	ctx := context.Background()
	var pages int
	for it.Next(ctx) {
		pages++
	}
	if pages != 1 {
		t.Fatalf("fetched %d pages before the failure, want 1", pages)
	}
	if !IsOverloaded(it.Err()) {
		t.Fatalf("iterator error: %v", it.Err())
	}
	if it.Next(ctx) {
		t.Fatal("a failed iterator yielded another page")
	}
	if len(it.Page().Rows) != 1 {
		t.Fatal("failure clobbered the last good page")
	}
}

// TestNameIterRetriesMidIteration mirrors the range test over postings:
// a mid-scan 429 with Retry-After is invisible to the consumer.
func TestNameIterRetriesMidIteration(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	const total, pageSize = 5, 2
	fired := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := 0
		if cur := r.URL.Query().Get("cursor"); cur != "" {
			start, _ = strconv.Atoi(cur)
		}
		if start == pageSize && !fired { // once, before the second page
			fired = true
			w.Header().Set("Retry-After", "3")
			writeEnvelope(w, http.StatusTooManyRequests, CodeRateLimited, "slow down")
			return
		}
		resp := NameResponse{Token: r.URL.Query().Get("token")}
		for i := start; i < total && len(resp.Postings) < pageSize; i++ {
			resp.Postings = append(resp.Postings, NamePosting{Prefix: fmt.Sprintf("10.0.%d.0/24", i), First: day, Last: day})
		}
		resp.Count = len(resp.Postings)
		if start+len(resp.Postings) < total {
			resp.NextCursor = strconv.Itoa(start + len(resp.Postings))
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, WithRetries(1, 10*time.Second))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	got, err := c.NameAll(context.Background(), "brian")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("got %d postings, want %d", len(got), total)
	}
	for i, p := range got {
		if p.Prefix != fmt.Sprintf("10.0.%d.0/24", i) {
			t.Fatalf("posting %d is %s: retry skipped or duplicated", i, p.Prefix)
		}
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want one 3s Retry-After wait", slept)
	}
}

// TestNameIterErrorStops: a hard mid-scan failure (400, not retryable)
// stops the name iterator with the typed error.
func TestNameIterErrorStops(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusBadRequest, CodeBadParam, "missing token parameter")
	}))
	defer ts.Close()
	it := New(ts.URL).Name(NameQuery{Token: ""})
	if it.Next(context.Background()) {
		t.Fatal("rejected query yielded a page")
	}
	ae, ok := it.Err().(*APIError)
	if !ok || ae.Code != CodeBadParam {
		t.Fatalf("iterator error: %v", it.Err())
	}
}
