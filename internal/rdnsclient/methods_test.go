package rdnsclient

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rdnsprivacy/internal/testutil"
)

// TestClientMethodWiring: the thin endpoint wrappers put their
// parameters on the wire and decode the documented response shapes.
func TestClientMethodWiring(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch r.URL.Path {
		case "/v1/at":
			if q.Get("ip") != "10.0.1.7" || q.Get("t") != day.Format(time.RFC3339) {
				writeEnvelope(w, http.StatusBadRequest, CodeBadParam, "params not threaded: "+r.URL.RawQuery)
				return
			}
			json.NewEncoder(w).Encode(AtResponse{IP: "10.0.1.7", Found: true, Name: "brians-iphone.lan.example.net."})
		case "/v1/churn":
			if q.Get("prefix") != "10.0.0.0/16" || q.Get("from") == "" || q.Get("to") == "" {
				writeEnvelope(w, http.StatusBadRequest, CodeBadParam, "params not threaded: "+r.URL.RawQuery)
				return
			}
			json.NewEncoder(w).Encode(ChurnResponse{Prefix: q.Get("prefix")})
		case "/v1/range":
			if q.Get("from") == "" || q.Get("to") == "" || q.Get("cursor") != "c1" {
				writeEnvelope(w, http.StatusBadRequest, CodeBadParam, "params not threaded: "+r.URL.RawQuery)
				return
			}
			json.NewEncoder(w).Encode(RangeResponse{Prefix: q.Get("prefix")})
		case "/v1/admin/reload":
			if r.Method != http.MethodPost {
				writeEnvelope(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, r.Method)
				return
			}
			json.NewEncoder(w).Encode(ReloadResponse{Generation: 2, Snapshots: 9})
		default:
			writeEnvelope(w, http.StatusNotFound, CodeNotFound, r.URL.Path)
		}
	}))
	defer ts.Close()

	// WithHTTPClient must substitute the transport the calls ride.
	c := New(ts.URL, WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))
	ctx := context.Background()

	at, err := c.At(ctx, "10.0.1.7", day)
	if err != nil || !at.Found {
		t.Fatalf("at: %+v err=%v", at, err)
	}
	cr, err := c.Churn(ctx, "10.0.0.0/16", day, day.AddDate(0, 0, 5))
	if err != nil || cr.Prefix != "10.0.0.0/16" {
		t.Fatalf("churn: %+v err=%v", cr, err)
	}
	if _, err := c.RangePage(ctx, RangeQuery{Prefix: "10.0.1.0/24", From: day, To: day}, "c1"); err != nil {
		t.Fatalf("range page: %v", err)
	}
	rl, err := c.Reload(ctx)
	if err != nil || rl.Generation != 2 || rl.Snapshots != 9 {
		t.Fatalf("reload: %+v err=%v", rl, err)
	}
}

// TestAPIErrorString: the error text carries message, status, and code —
// what ends up in a replica's sync-error log line.
func TestAPIErrorString(t *testing.T) {
	e := &APIError{Status: 429, Code: CodeRateLimited, Message: "slow down"}
	if got := e.Error(); got != "rdnsd: slow down (429 rate_limited)" {
		t.Fatalf("error string: %q", got)
	}
}

// TestSleepCtx: the default sleeper waits the asked duration and aborts
// immediately on a dead context.
func TestSleepCtx(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	start := time.Now()
	if err := sleepCtx(context.Background(), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("returned before the wait elapsed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := sleepCtx(ctx, time.Hour); err == nil || time.Since(start) > time.Second {
		t.Fatalf("dead context: err=%v after %s", err, time.Since(start))
	}
	if err := sleepCtx(context.Background(), 0); err != nil {
		t.Fatalf("zero wait: %v", err)
	}
}
