package rdnsclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/testutil"
)

func writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorDetail{Code: code, Message: msg}})
}

// TestRetryOn429HonorsRetryAfter: two 429s with Retry-After, then a 200.
// The client must sleep what the server asked (observed via the injected
// sleeper) and succeed on the third attempt.
func TestRetryOn429HonorsRetryAfter(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-API-Key") != "brian" {
			writeEnvelope(w, http.StatusForbidden, CodeForbidden, "who are you")
			return
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			writeEnvelope(w, http.StatusTooManyRequests, CodeRateLimited, "slow down")
			return
		}
		json.NewEncoder(w).Encode(DaysResponse{Count: 1, Days: []time.Time{time.Unix(0, 0).UTC()}})
	}))
	defer ts.Close()

	var slept []time.Duration
	var hooked []RequestInfo
	c := New(ts.URL, WithAPIKey("brian"), WithRetries(3, 10*time.Second),
		WithTrace(7, nil), WithRequestHook(func(ri RequestInfo) { hooked = append(hooked, ri) }))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	days, err := c.Days(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if days.Count != 1 || calls.Load() != 3 {
		t.Fatalf("days=%+v calls=%d", days, calls.Load())
	}
	// The request hook sees the request once, retries and all.
	if len(hooked) != 1 || hooked[0].Attempts != 3 || hooked[0].Path != "/v1/days" ||
		hooked[0].Corr == 0 || hooked[0].Err != nil {
		t.Fatalf("request hook saw %+v, want one /v1/days request of 3 attempts", hooked)
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("slept %v, want two 2s waits from Retry-After", slept)
	}
}

// TestRetriesExhausted: with retries disabled every 429 surfaces
// immediately as a typed APIError.
func TestRetriesExhausted(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		writeEnvelope(w, http.StatusTooManyRequests, CodeRateLimited, "bucket empty")
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(0, 0))
	_, err := c.Stats(context.Background())
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error %T: %v", err, err)
	}
	if !IsRateLimited(err) || IsOverloaded(err) {
		t.Fatalf("classification wrong: %+v", ae)
	}
	if ae.Code != CodeRateLimited || ae.Status != 429 || ae.RetryAfter != 7*time.Second {
		t.Fatalf("APIError %+v", ae)
	}
}

// TestErrorEnvelopeAndFallback: envelope bodies decode into code/message;
// non-envelope bodies (a proxy's plain text) still produce a usable error.
func TestErrorEnvelopeAndFallback(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/at":
			writeEnvelope(w, http.StatusBadRequest, CodeBadParam, "ip: banana")
		default:
			http.Error(w, "bad gateway", http.StatusBadGateway)
		}
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.At(context.Background(), "banana", time.Time{})
	if ae, ok := err.(*APIError); !ok || ae.Code != CodeBadParam || ae.Status != 400 || ae.Message != "ip: banana" {
		t.Fatalf("envelope error: %v", err)
	}
	_, err = c.Days(context.Background())
	if ae, ok := err.(*APIError); !ok || ae.Code != CodeInternal || ae.Status != 502 || ae.Message != "bad gateway" {
		t.Fatalf("fallback error: %v", err)
	}
}

// TestRangeIterPagination: the iterator follows next_cursor to the end,
// including an empty final page, and RangeAll concatenates exactly.
func TestRangeIterPagination(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	total := 7 // pages of 3: [3, 3, 1]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("prefix"); got != "10.0.1.0/24" {
			writeEnvelope(w, http.StatusBadRequest, CodeBadParam, "prefix: "+got)
			return
		}
		start := 0
		if cur := r.URL.Query().Get("cursor"); cur != "" {
			start, _ = strconv.Atoi(cur)
		}
		limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
		resp := RangeResponse{Prefix: "10.0.1.0/24", From: day, To: day}
		for i := start; i < total && len(resp.Rows) < limit; i++ {
			resp.Rows = append(resp.Rows, RangeRow{Date: day, IP: fmt.Sprintf("10.0.1.%d", i), PTR: "x.example.net."})
		}
		resp.Count = len(resp.Rows)
		if start+len(resp.Rows) < total {
			resp.NextCursor = strconv.Itoa(start + len(resp.Rows))
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()

	c := New(ts.URL)
	q := RangeQuery{Prefix: "10.0.1.0/24", Limit: 3}
	it := c.Range(q)
	var pages []int
	ctx := context.Background()
	for it.Next(ctx) {
		pages = append(pages, it.Page().Count)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(pages) != 3 || pages[0] != 3 || pages[1] != 3 || pages[2] != 1 {
		t.Fatalf("pages %v", pages)
	}
	rows, err := c.RangeAll(ctx, q)
	if err != nil || len(rows) != total {
		t.Fatalf("RangeAll: %d rows, err %v", len(rows), err)
	}
	for i, r := range rows {
		if r.IP != fmt.Sprintf("10.0.1.%d", i) {
			t.Fatalf("row %d out of order: %+v", i, r)
		}
	}

	// An error mid-iteration surfaces via Err and stops the loop.
	bad := c.Range(RangeQuery{Prefix: "zzz"})
	for bad.Next(ctx) {
		t.Fatal("iteration over a rejected query yielded a page")
	}
	if bad.Err() == nil {
		t.Fatal("no error from rejected query")
	}
}

// TestNameIterPagination mirrors the range iterator over postings.
func TestNameIterPagination(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := 0
		if cur := r.URL.Query().Get("cursor"); cur != "" {
			start, _ = strconv.Atoi(cur)
		}
		resp := NameResponse{Token: r.URL.Query().Get("token")}
		for i := start; i < 5 && len(resp.Postings) < 2; i++ {
			resp.Postings = append(resp.Postings, NamePosting{Prefix: fmt.Sprintf("10.0.%d.0/24", i), First: day, Last: day})
		}
		resp.Count = len(resp.Postings)
		if start+len(resp.Postings) < 5 {
			resp.NextCursor = strconv.Itoa(start + len(resp.Postings))
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()
	got, err := New(ts.URL).NameAll(context.Background(), "brian")
	if err != nil || len(got) != 5 {
		t.Fatalf("NameAll: %d postings, err %v", len(got), err)
	}
}

// TestContextCancellationStopsRetry: a canceled context aborts the retry
// sleep rather than burning the full Retry-After.
func TestContextCancellationStopsRetry(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		writeEnvelope(w, http.StatusServiceUnavailable, CodeOverloaded, "shedding")
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(ts.URL, WithRetries(5, time.Minute))
	start := time.Now()
	_, err := c.Stats(ctx)
	if err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("canceled retry: err=%v after %s", err, time.Since(start))
	}
}
