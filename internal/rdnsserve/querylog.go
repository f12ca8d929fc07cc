package rdnsserve

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"rdnsprivacy/internal/telemetry"
)

// QueryLogEntry is one canonical "wide event": everything the daemon
// knows about one request, in one record, keyed by the same correlation
// ID the trace spans and latency exemplars carry. The pipeline fills one
// in as the request proceeds (it is the core of its event) and every other
// view is derived from the same values. The schema is part of
// the observability contract (docs/observability.md); fields are
// snake_case on the wire to match the metrics surface.
type QueryLogEntry struct {
	// Corr is the request's correlation ID, 16 hex digits — the
	// X-Rdns-Corr value when the client sent one, else server-derived.
	Corr string `json:"corr"`
	// Endpoint is the route name ("at", "range", "admin_reload", ...).
	Endpoint string `json:"endpoint"`
	// Client is the admission principal ("key:loader-3" or "addr:...").
	Client string `json:"client,omitempty"`
	// Params fingerprints the canonicalized query parameters, 16 hex
	// digits — equal fingerprints mean byte-equal canonical params.
	Params string `json:"params,omitempty"`
	// Status is the HTTP status written (499 = client went away).
	Status int `json:"status"`
	// Code is the envelope error code for non-200 responses.
	Code string `json:"code,omitempty"`
	// Admission is the front door's verdict: "admitted", "ratelimited",
	// "denied", "shed" — or "" when the request failed before admission
	// (wrong method).
	Admission string `json:"admission,omitempty"`
	// Generation is the store generation that served the request, -1
	// when no handle was pinned (rejected before store access).
	Generation int64 `json:"gen"`
	// ParseNS and StoreNS are the phase latencies (validation and
	// store-query phases); TotalNS spans the whole request.
	ParseNS int64 `json:"parse_ns"`
	StoreNS int64 `json:"store_ns"`
	TotalNS int64 `json:"total_ns"`
	// Bytes is the response body size written.
	Bytes int `json:"bytes"`
	// Slow marks entries whose total latency crossed the slow threshold.
	Slow bool `json:"slow,omitempty"`
}

// QueryLogConfig sizes a QueryLog.
type QueryLogConfig struct {
	// Size is the ring capacity (default 1024).
	Size int
	// SlowThreshold enables the slow-query log. The threshold is rounded
	// up to the containing telemetry.DefaultLatencyBuckets bound so
	// slow-log membership agrees with histogram bucketing: a query is
	// slow iff it landed in a histogram bucket strictly above that
	// bound, so the slow count equals the histogram's tail count past
	// it. 0 disables the slow log.
	SlowThreshold time.Duration
	// SlowSize is the slow ring capacity (default 64).
	SlowSize int
}

// QueryLog ring-buffers one QueryLogEntry per request. Recording takes
// one short mutex hold (the log exists only when -query-log is set, so
// the unconfigured hot path pays nothing); snapshots copy out under the
// same mutex, so scrapes are safe concurrently with recording and with
// hot reloads swapping the store underneath.
type QueryLog struct {
	slowSecs float64 // rounded-up threshold, 0 = slow log off

	mu    sync.Mutex
	ring  []QueryLogEntry
	next  int
	full  bool
	total uint64
	slow  []QueryLogEntry
	snext int
	sfull bool
}

// NewQueryLog builds a query log; see QueryLogConfig for defaults.
func NewQueryLog(cfg QueryLogConfig) *QueryLog {
	if cfg.Size <= 0 {
		cfg.Size = 1024
	}
	if cfg.SlowSize <= 0 {
		cfg.SlowSize = 64
	}
	l := &QueryLog{ring: make([]QueryLogEntry, cfg.Size)}
	if cfg.SlowThreshold > 0 {
		l.slowSecs = SlowBound(cfg.SlowThreshold.Seconds())
		l.slow = make([]QueryLogEntry, cfg.SlowSize)
	}
	return l
}

// SlowBound rounds secs up to the containing DefaultLatencyBuckets
// bound, so a slow-log threshold and the latency histogram agree on
// which bucket boundary "slow" starts at. Values above the last bound
// return the value unchanged (the overflow bucket has no upper bound).
func SlowBound(secs float64) float64 {
	for _, b := range telemetry.DefaultLatencyBuckets() {
		if secs <= b {
			return b
		}
	}
	return secs
}

// seconds is the one conversion from a measured duration to the value the
// latency histograms bucket and the slow log thresholds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// record appends e, marking and retaining it as slow when its total
// latency lands in a histogram bucket past the threshold's. Safe on a nil
// receiver.
func (l *QueryLog) record(e QueryLogEntry) {
	if l == nil {
		return
	}
	slow := l.slowSecs > 0 && seconds(e.TotalNS) > l.slowSecs
	e.Slow = slow
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next, l.full = 0, true
	}
	if slow {
		l.slow[l.snext] = e
		l.snext++
		if l.snext == len(l.slow) {
			l.snext, l.sfull = 0, true
		}
	}
}

// Snapshot copies the buffered entries, oldest first.
func (l *QueryLog) Snapshot() []QueryLogEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return snapshotRing(l.ring, l.next, l.full)
}

func snapshotRing(ring []QueryLogEntry, next int, full bool) []QueryLogEntry {
	if ring == nil {
		return nil
	}
	if !full {
		return append([]QueryLogEntry(nil), ring[:next]...)
	}
	out := make([]QueryLogEntry, 0, len(ring))
	out = append(out, ring[next:]...)
	return append(out, ring[:next]...)
}

// Len reports how many entries are buffered.
func (l *QueryLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return len(l.ring)
	}
	return l.next
}

// SlowLen reports how many slow entries are buffered.
func (l *QueryLog) SlowLen() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sfull {
		return len(l.slow)
	}
	return l.snext
}

// Total reports how many entries were ever recorded (>= Len once the
// ring wraps).
func (l *QueryLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// WriteJSONL dumps the buffered entries, oldest first, one JSON object
// per line — the same shape /querylog serves and ReadQueryLog parses.
func (l *QueryLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Snapshot() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadQueryLog parses a WriteJSONL dump.
func ReadQueryLog(r io.Reader) ([]QueryLogEntry, error) {
	dec := json.NewDecoder(r)
	var out []QueryLogEntry
	for {
		var e QueryLogEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// Digest folds the buffered entries into one order-independent 64-bit
// value: entries are keyed by their deterministic identity fields
// (corr, endpoint, client, params, status, code, admission, generation)
// — never latencies, byte counts, or arrival order, which depend on
// scheduling — sorted, and FNV-folded. Two seeded runs that served the
// same requests with the same verdicts digest identically even when
// goroutine interleaving reordered the ring.
func (l *QueryLog) Digest() uint64 {
	keys := make([]string, 0, l.Len())
	for _, e := range l.Snapshot() {
		keys = append(keys, e.Corr+"|"+e.Endpoint+"|"+e.Client+"|"+e.Params+"|"+
			strconv.Itoa(e.Status)+"|"+e.Code+"|"+e.Admission+"|"+strconv.FormatInt(e.Generation, 10))
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// paramsFingerprint canonicalizes query parameters (sorted keys, sorted
// values within a key) and hashes them to 16 hex digits, so the log can
// group "the same query" without storing raw parameter values.
func paramsFingerprint(q map[string][]string) string {
	if len(q) == 0 {
		return ""
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		vs := append([]string(nil), q[k]...)
		sort.Strings(vs)
		for _, v := range vs {
			h.Write([]byte(k))
			h.Write([]byte{'='})
			h.Write([]byte(v))
			h.Write([]byte{'&'})
		}
	}
	return telemetry.CorrHex(h.Sum64())
}

// corrFromHeader parses an X-Rdns-Corr value (16 hex digits); malformed
// or absent headers return 0, which a query route replaces with a
// server-derived ID — a bad header degrades to uncorrelated, never to
// an error.
func corrFromHeader(v string) uint64 {
	if len(v) != 16 {
		return 0
	}
	n, err := strconv.ParseUint(v, 16, 64)
	if err != nil {
		return 0
	}
	return n
}
