package rdnsserve

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
)

// AdmissionConfig tunes the daemon's front door: per-client token-bucket
// rate limits, source ACLs, and a bound on concurrent in-flight queries.
// The zero value admits everything — the right default for tests and
// benchmarks.
type AdmissionConfig struct {
	// RatePerSec is each client's sustained request budget; 0 (or
	// negative) disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity — how far above the sustained rate a
	// client may spike. Defaults to max(RatePerSec, 1) when unset.
	Burst float64
	// MaxClients bounds the bucket table; stale clients are evicted once
	// it fills. Defaults to 65536.
	MaxClients int
	// MaxInFlight bounds concurrently admitted queries; beyond it the
	// daemon sheds with 503 + Retry-After. 0 means unbounded.
	MaxInFlight int
	// Allow, when non-empty, restricts service to clients whose source
	// address falls inside one of these prefixes.
	Allow []dnswire.Prefix
	// Deny rejects clients inside any of these prefixes; Deny wins over
	// Allow.
	Deny []dnswire.Prefix
	// Now substitutes the bucket clock (tests).
	Now func() time.Time
}

func (c AdmissionConfig) limiting() bool { return c.RatePerSec > 0 }

// bucket is one client's token bucket, guarded by admission.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission implements the request front door. Decisions in order:
// ACL (403), token bucket (429), in-flight slot (503). Each verdict has its
// own counter so operators can tell pushback from failure.
type admission struct {
	cfg  AdmissionConfig
	now  func() time.Time
	rate float64
	cap  float64

	inFlight atomic.Int64
	peak     atomic.Int64

	mu      sync.Mutex
	buckets map[string]*bucket

	verdicts map[string]*telemetry.Counter // by verdict; written by Server.observe
}

func newAdmission(cfg AdmissionConfig, sink telemetry.Sink) *admission {
	a := &admission{
		cfg:     cfg,
		now:     cfg.Now,
		rate:    cfg.RatePerSec,
		cap:     cfg.Burst,
		buckets: make(map[string]*bucket),

		verdicts: map[string]*telemetry.Counter{
			verdictAdmitted:    sink.Counter("rdnsd_admission_admitted_total"),
			verdictRateLimited: sink.Counter("rdnsd_admission_rate_limited_total"),
			verdictDenied:      sink.Counter("rdnsd_admission_denied_total"),
			verdictShed:        sink.Counter("rdnsd_admission_shed_total"),
		},
	}
	// The gauges read what /v1/stats reads.
	sink.GaugeView("rdnsd_admission_inflight", a.inFlight.Load)
	sink.GaugeView("rdnsd_admission_peak_inflight", a.peak.Load)
	sink.GaugeView("rdnsd_admission_clients", func() int64 { return int64(a.clients()) })
	if a.now == nil {
		a.now = time.Now
	}
	if a.cap <= 0 {
		a.cap = math.Max(a.rate, 1)
	}
	if a.cfg.MaxClients <= 0 {
		a.cfg.MaxClients = 65536
	}
	return a
}

// clientKey identifies the rate-limit principal: the API key when the
// request carries one, otherwise the source address. The prefixes keep a
// keyless client from draining a keyed client's bucket by collision.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// checkACL returns a forbidden error when the source address is denied,
// or outside a non-empty allow list. Unparseable addresses (unix sockets,
// in-process tests) pass: ACLs guard network edges, not harness plumbing.
func (a *admission) checkACL(r *http.Request) *apiError {
	if len(a.cfg.Allow) == 0 && len(a.cfg.Deny) == 0 {
		return nil
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	ip, err := dnswire.ParseIPv4(host)
	if err != nil {
		return nil
	}
	for _, p := range a.cfg.Deny {
		if p.Contains(ip) {
			return errForbidden("client " + ip.String() + " is denied")
		}
	}
	if len(a.cfg.Allow) > 0 {
		for _, p := range a.cfg.Allow {
			if p.Contains(ip) {
				return nil
			}
		}
		return errForbidden("client " + ip.String() + " is not in the allow list")
	}
	return nil
}

// take spends one token from key's bucket. On refusal it returns the
// whole seconds a client should wait before the bucket holds a token
// (Retry-After, minimum 1). remaining is the post-spend token count for
// the X-RateLimit-Remaining header.
func (a *admission) take(key string) (ok bool, retryAfter int, remaining int) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[key]
	if b == nil {
		if len(a.buckets) >= a.cfg.MaxClients {
			a.evictLocked(now)
		}
		b = &bucket{tokens: a.cap, last: now}
		a.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(a.cap, b.tokens+dt*a.rate)
	}
	b.last = now
	if b.tokens < 1 {
		wait := int(math.Ceil((1 - b.tokens) / a.rate))
		if wait < 1 {
			wait = 1
		}
		return false, wait, 0
	}
	b.tokens--
	return true, 0, int(b.tokens)
}

// evictLocked frees bucket-table space: drop every client idle long
// enough to have refilled completely (it would start fresh anyway), and
// if nothing is that stale, the single least-recently-seen one.
func (a *admission) evictLocked(now time.Time) {
	idle := time.Duration(float64(time.Second) * (a.cap/a.rate + 60))
	var oldestKey string
	var oldest time.Time
	for k, b := range a.buckets {
		if now.Sub(b.last) >= idle {
			delete(a.buckets, k)
			continue
		}
		if oldestKey == "" || b.last.Before(oldest) {
			oldestKey, oldest = k, b.last
		}
	}
	if len(a.buckets) >= a.cfg.MaxClients && oldestKey != "" {
		delete(a.buckets, oldestKey)
	}
}

// enter claims an in-flight slot, to be given back with leave, or reports
// false when the daemon is at MaxInFlight and this request must shed.
func (a *admission) enter() bool {
	n := a.inFlight.Add(1)
	if a.cfg.MaxInFlight > 0 && n > int64(a.cfg.MaxInFlight) {
		a.inFlight.Add(-1)
		return false
	}
	for {
		p := a.peak.Load()
		if n <= p || a.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return true
}

func (a *admission) leave() { a.inFlight.Add(-1) }

// The front door's verdicts, as the query log spells them.
const (
	verdictAdmitted    = "admitted"
	verdictRateLimited = "ratelimited"
	verdictDenied      = "denied"
	verdictShed        = "shed"
)

// admit runs the front door for one request of client (its clientKey) and
// returns the verdict, with the apiError to write on a refusal (Retry-After
// and rate-limit headers already applied to w). An admitted request that is
// not exempt holds an in-flight slot the caller must leave. Exempt requests
// — the admin surface and the replication feed — skip the token bucket and
// the in-flight bound but still pass the ACL.
func (a *admission) admit(w http.ResponseWriter, r *http.Request, client string, exempt bool) (string, *apiError) {
	if err := a.checkACL(r); err != nil {
		return verdictDenied, err
	}
	if exempt {
		return verdictAdmitted, nil
	}
	if a.cfg.limiting() {
		ok, retryAfter, remaining := a.take(client)
		w.Header().Set("X-RateLimit-Limit", strconv.FormatFloat(a.rate, 'f', -1, 64))
		if !ok {
			w.Header().Set("X-RateLimit-Remaining", "0")
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			return verdictRateLimited, errRateLimited()
		}
		w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(remaining))
	}
	if !a.enter() {
		w.Header().Set("Retry-After", "1")
		return verdictShed, errOverloaded()
	}
	return verdictAdmitted, nil
}

// clients reports the bucket-table size.
func (a *admission) clients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buckets)
}
