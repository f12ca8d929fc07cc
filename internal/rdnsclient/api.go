// Package rdnsclient is the Go client for rdnsd's versioned v1 query API
// and the definition of that API's wire contract: the query request and
// response envelopes, the JSON error envelope, the error-code vocabulary
// and the feed's header names live here, imported by both the server
// (internal/rdnsserve) and every consumer (cmd/rdnsload, tests), so the
// contract cannot drift between the two sides. The documents the history
// store produces about itself — its summary, churn days and the
// replication feed's manifest and tail identity — are
// histstore's own types, which the envelopes here name directly.
//
//	c := rdnsclient.New("http://127.0.0.1:8077")
//	at, err := c.At(ctx, "10.0.1.7", day)
//	it := c.Range(rdnsclient.RangeQuery{Prefix: "10.0.1.0/24", Limit: 1000})
//	for it.Next(ctx) {
//		page := it.Page() // one bounded page of rows
//	}
//	err = it.Err()
//
// Errors surface as *APIError carrying the envelope's code and message
// plus the HTTP status; 429 and 503 responses are retried with the
// server's Retry-After honored (see WithRetries). See docs/api.md for
// the endpoint reference.
package rdnsclient

import (
	"time"

	"rdnsprivacy/internal/histstore"
)

// Error codes the v1 API returns inside the error envelope. The HTTP
// status is derivable from the code (see docs/api.md); clients should
// switch on Code, not on ad-hoc message strings.
const (
	// CodeBadParam: a missing, malformed, or unknown query parameter
	// (HTTP 400).
	CodeBadParam = "bad_param"
	// CodeInvalidCursor: a pagination cursor that is malformed or belongs
	// to a different query (HTTP 400).
	CodeInvalidCursor = "invalid_cursor"
	// CodeBeforeHistory: a query instant preceding the store's first
	// snapshot (HTTP 400).
	CodeBeforeHistory = "before_history"
	// CodeNotFound: an unknown endpoint path (HTTP 404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: a valid path with the wrong HTTP method
	// (HTTP 405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeForbidden: the client is excluded by the server's ACL, or the
	// admin surface is disabled (HTTP 403).
	CodeForbidden = "forbidden"
	// CodeRateLimited: the client exhausted its token bucket; Retry-After
	// carries the wait in seconds (HTTP 429).
	CodeRateLimited = "rate_limited"
	// CodeOverloaded: the daemon shed the request at its in-flight
	// concurrency bound; Retry-After is set (HTTP 503).
	CodeOverloaded = "overloaded"
	// CodeCanceled: the client disconnected mid-query and the work was
	// abandoned (HTTP 499; never seen by a live client).
	CodeCanceled = "canceled"
	// CodeReplChanged: a replication tail fetch named a tail file the
	// writer no longer appends to (compaction started a fresh tail); the
	// replica must refetch the manifest (HTTP 409).
	CodeReplChanged = "repl_changed"
	// CodeInternal: an unexpected server-side failure (HTTP 500).
	CodeInternal = "internal"
)

// ErrorDetail is the body of the v1 error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform v1 error shape:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// AtResponse is /v1/at: the PTR name ip held at the newest snapshot at or
// before t. Resolved names the snapshot that answered.
type AtResponse struct {
	IP       string    `json:"ip"`
	T        time.Time `json:"t"`
	Resolved time.Time `json:"resolved"`
	Found    bool      `json:"found"`
	Name     string    `json:"name,omitempty"`
}

// RangeRow is one /v1/range observation.
type RangeRow struct {
	Date time.Time `json:"date"`
	IP   string    `json:"ip"`
	PTR  string    `json:"ptr"`
}

// RangeResponse is one page of /v1/range. Count is the rows in this page;
// NextCursor resumes the scan when non-empty (a page that fills its limit
// exactly may be followed by an empty final page).
type RangeResponse struct {
	Prefix     string     `json:"prefix"`
	From       time.Time  `json:"from"`
	To         time.Time  `json:"to"`
	Count      int        `json:"count"`
	Rows       []RangeRow `json:"rows"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

// ChurnResponse is /v1/churn.
type ChurnResponse struct {
	Prefix string               `json:"prefix"`
	From   time.Time            `json:"from"`
	To     time.Time            `json:"to"`
	Days   []histstore.ChurnDay `json:"days"`
}

// NamePosting is one /v1/name result: the token was present in Prefix on
// every snapshot from First through Last inclusive.
type NamePosting struct {
	Prefix string    `json:"prefix"`
	First  time.Time `json:"first"`
	Last   time.Time `json:"last"`
}

// NameResponse is one page of /v1/name postings.
type NameResponse struct {
	Token      string        `json:"token"`
	Count      int           `json:"count"`
	Postings   []NamePosting `json:"postings"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// DaysResponse is /v1/days: the store's snapshot instants in append order.
type DaysResponse struct {
	Count int         `json:"count"`
	Days  []time.Time `json:"days"`
}

// AdmissionStats is the daemon's admission-control summary: cumulative
// decision counters plus instantaneous occupancy.
type AdmissionStats struct {
	Admitted     uint64 `json:"admitted"`
	RateLimited  uint64 `json:"rate_limited"`
	Denied       uint64 `json:"denied"`
	Shed         uint64 `json:"shed"`
	InFlight     int64  `json:"in_flight"`
	PeakInFlight int64  `json:"peak_in_flight"`
	Clients      int    `json:"clients"`
}

// EndpointStats is one endpoint's per-outcome request counts
// (rdnsd_requests_total{endpoint,outcome} on the metrics surface). The
// four outcomes partition every request the endpoint saw: OK answered
// 200, Rejected was refused by admission (rate limit, ACL, or shedding),
// Canceled saw its client disconnect mid-query, Errors is everything
// else that failed.
type EndpointStats struct {
	OK       uint64 `json:"ok"`
	Errors   uint64 `json:"errors"`
	Canceled uint64 `json:"canceled"`
	Rejected uint64 `json:"rejected"`
}

// LatencyStats summarizes the daemon's aggregate query-latency histogram
// with the exemplar that answers "which query was the p99": P99Corr is
// the X-Rdns-Corr correlation ID (16 hex digits) of the worst
// observation in the bucket holding the p99 rank, resolvable against
// the daemon's /trace and /querylog dumps. Empty when telemetry is off.
type LatencyStats struct {
	Count    uint64  `json:"count"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	P99Corr  string  `json:"p99_corr,omitempty"`
	P99Value float64 `json:"p99_value,omitempty"`
}

// QueryLogStats summarizes the daemon's canonical query log: total
// requests recorded since start, how many are still buffered in the
// ring, and how many crossed the slow threshold. Zero-valued when the
// daemon runs without -query-log.
type QueryLogStats struct {
	Total    uint64 `json:"total"`
	Buffered int    `json:"buffered"`
	Slow     int    `json:"slow"`
}

// StatsResponse is /v1/stats. Generation counts store-handle swaps (0
// until the first hot reload; on a replica, every completed catch-up
// sync bumps it). Replica is set only on daemons running -replica-of;
// Endpoints and Latency carry data only when the daemon runs with
// telemetry, and QueryLog only with -query-log.
type StatsResponse struct {
	Generation   int64                    `json:"generation"`
	Store        histstore.Stats          `json:"store"`
	CacheHitRate float64                  `json:"cache_hit_rate"`
	Admission    AdmissionStats           `json:"admission"`
	Latency      LatencyStats             `json:"latency"`
	Endpoints    map[string]EndpointStats `json:"endpoints,omitempty"`
	QueryLog     QueryLogStats            `json:"query_log"`
	Replica      *ReplicaStats            `json:"replica,omitempty"`
}

// ReloadResponse is POST /v1/admin/reload: the freshly opened store's
// size and the new handle generation.
type ReloadResponse struct {
	Reloaded   bool  `json:"reloaded"`
	Generation int64 `json:"generation"`
	Snapshots  int   `json:"snapshots"`
}
