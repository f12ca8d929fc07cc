package rdnsserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// doAs issues an in-process request with a chosen source address and API
// key, returning the recorder (admission decisions key on both).
func doAs(h http.Handler, path, remoteAddr, apiKey string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	if remoteAddr != "" {
		req.RemoteAddr = remoteAddr
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func envelopeCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env rdnsclient.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("not an envelope: %s", rec.Body)
	}
	return env.Error.Code
}

// TestACL: deny beats allow, allow-list membership is required when one
// is configured, and denials are 403 forbidden (every route sits behind it:
// TestRouteTableContract).
func TestACL(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := newTestServer(t, 4, Config{
		Sink: reg,
		Admission: AdmissionConfig{
			Allow: []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/8")},
			Deny:  []dnswire.Prefix{dnswire.MustPrefix("10.9.0.0/16")},
		},
	})
	h := srv.Handler()

	if rec := doAs(h, "/v1/days", "10.1.2.3:555", ""); rec.Code != 200 {
		t.Fatalf("allowed client: %d %s", rec.Code, rec.Body)
	}
	if rec := doAs(h, "/v1/days", "192.168.1.1:555", ""); rec.Code != 403 || envelopeCode(t, rec) != rdnsclient.CodeForbidden {
		t.Fatalf("outside allow list: %d %s", rec.Code, rec.Body)
	}
	// Deny wins over allow.
	if rec := doAs(h, "/v1/days", "10.9.4.4:555", ""); rec.Code != 403 {
		t.Fatalf("denied client: %d %s", rec.Code, rec.Body)
	}
	if got := reg.Counter("rdnsd_admission_denied_total").Value(); got != 2 {
		t.Fatalf("denied counter %d, want 2", got)
	}
}

// TestRateLimit: the token bucket admits the burst, rejects with 429 +
// Retry-After, refills with the (injected) clock, and buckets per API key.
func TestRateLimit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	reg := telemetry.NewRegistry()
	srv, _ := newTestServer(t, 4, Config{
		Sink:      reg,
		Admission: AdmissionConfig{RatePerSec: 1, Burst: 2, Now: clock},
	})
	h := srv.Handler()

	for i := 0; i < 2; i++ {
		if rec := doAs(h, "/v1/days", "", "alice"); rec.Code != 200 {
			t.Fatalf("burst request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec := doAs(h, "/v1/days", "", "alice")
	if rec.Code != 429 || envelopeCode(t, rec) != rdnsclient.CodeRateLimited {
		t.Fatalf("over burst: %d %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
	if rec.Header().Get("X-RateLimit-Remaining") != "0" || rec.Header().Get("X-RateLimit-Limit") != "1" {
		t.Fatalf("rate limit headers: %v", rec.Header())
	}

	// A different key has its own bucket; so does a different bare address.
	if rec := doAs(h, "/v1/days", "", "bob"); rec.Code != 200 {
		t.Fatalf("bob's bucket drained by alice: %d", rec.Code)
	}
	if rec := doAs(h, "/v1/days", "172.16.0.9:1", ""); rec.Code != 200 {
		t.Fatalf("address-keyed bucket: %d", rec.Code)
	}

	// One second refills one token.
	advance(time.Second)
	if rec := doAs(h, "/v1/days", "", "alice"); rec.Code != 200 {
		t.Fatalf("after refill: %d %s", rec.Code, rec.Body)
	}
	if rec := doAs(h, "/v1/days", "", "alice"); rec.Code != 429 {
		t.Fatalf("refill granted more than rate*dt: %d", rec.Code)
	}

	// The admin surface is exempt from the bucket (but ACL-checked):
	// reload must work on a daemon that is busy shedding. No Reopen is
	// configured, so 403 — the point is that it is not 429.
	req := httptest.NewRequest("POST", "/v1/admin/reload", nil)
	req.Header.Set("X-API-Key", "alice")
	arec := httptest.NewRecorder()
	h.ServeHTTP(arec, req)
	if arec.Code == 429 {
		t.Fatalf("admin path rate limited: %d", arec.Code)
	}

	if reg.Counter("rdnsd_admission_rate_limited_total").Value() != 2 {
		t.Fatalf("rate-limited counter %d, want 2", reg.Counter("rdnsd_admission_rate_limited_total").Value())
	}
	st, err := rdnsclientStats(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.RateLimited != 2 || st.Admission.Admitted == 0 || st.Admission.Clients < 4 {
		t.Fatalf("admission stats: %+v", st.Admission)
	}
}

// rdnsclientStats fetches /v1/stats through the handler in-process.
func rdnsclientStats(h http.Handler) (rdnsclient.StatsResponse, error) {
	rec := doAs(h, "/v1/stats", "", "stats-probe")
	var out rdnsclient.StatsResponse
	err := json.Unmarshal(rec.Body.Bytes(), &out)
	return out, err
}

// TestLoadShedding: beyond MaxInFlight the daemon sheds with 503 +
// Retry-After instead of queueing without bound.
func TestLoadShedding(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	srv, _ := newTestServer(t, 4, Config{
		Sink:      reg,
		Admission: AdmissionConfig{MaxInFlight: 2},
	})
	h := srv.Handler()

	// Occupy both slots directly, then observe the front door shed.
	if !srv.adm.enter() || !srv.adm.enter() {
		t.Fatal("could not occupy in-flight slots")
	}
	rec := doAs(h, "/v1/days", "", "")
	if rec.Code != 503 || envelopeCode(t, rec) != rdnsclient.CodeOverloaded {
		t.Fatalf("at capacity: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("shed without Retry-After: %v", rec.Header())
	}
	srv.adm.leave()
	if rec := doAs(h, "/v1/days", "", ""); rec.Code != 200 {
		t.Fatalf("slot freed but still shedding: %d", rec.Code)
	}
	srv.adm.leave()

	if reg.Counter("rdnsd_admission_shed_total").Value() != 1 {
		t.Fatalf("shed counter %d, want 1", reg.Counter("rdnsd_admission_shed_total").Value())
	}
	if peak := srv.adm.peak.Load(); peak < 2 {
		t.Fatalf("peak in-flight %d, want >= 2", peak)
	}
	if g := reg.Snapshot().Gauges["rdnsd_admission_inflight"]; g != 0 {
		t.Fatalf("in-flight gauge stuck at %d", g)
	}
}

// TestBucketEviction: the bucket table stays bounded under a churn of
// distinct client keys.
func TestBucketEviction(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	srv, _ := newTestServer(t, 4, Config{
		Admission: AdmissionConfig{RatePerSec: 100, Burst: 100, MaxClients: 8, Now: clock},
	})
	h := srv.Handler()
	for i := 0; i < 50; i++ {
		key := string(rune('a'+i%26)) + string(rune('a'+i/26))
		if rec := doAs(h, "/v1/days", "", key); rec.Code != 200 {
			t.Fatalf("client %d: %d", i, rec.Code)
		}
		mu.Lock()
		now = now.Add(10 * time.Millisecond)
		mu.Unlock()
	}
	if n := srv.adm.clients(); n > 8 {
		t.Fatalf("bucket table grew to %d, bound is 8", n)
	}
}

// TestRateLimitDisabledByDefault: the zero AdmissionConfig admits an
// arbitrary burst with no limiting headers.
func TestRateLimitDisabledByDefault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := newTestServer(t, 4, Config{})
	h := srv.Handler()
	for i := 0; i < 200; i++ {
		rec := doAs(h, "/v1/days", "", "")
		if rec.Code != 200 {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
		if rec.Header().Get("X-RateLimit-Limit") != "" {
			t.Fatal("rate-limit headers with limiting disabled")
		}
	}
}
