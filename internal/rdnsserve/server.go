// Package rdnsserve is rdnsd's serving layer: the versioned /v1 query API
// over a histstore, with admission control (per-client token buckets,
// ACLs, in-flight load shedding) and hot reload onto a freshly opened store
// without dropping in-flight queries. Every route is a row of one table and
// every request one event, from which all telemetry is derived
// (pipeline.go). cmd/rdnsd wires it to flags and signals; cmd/rdnsload
// drives it in-process; the wire contract lives in internal/rdnsclient. See
// docs/api.md.
package rdnsserve

import (
	"context"
	"errors"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/telemetry"
)

// Metric names the serving layer registers (alongside the store's hist_*
// and the admission rdnsd_admission_* instruments; see docs/api.md).
// rdnsd_requests_total{endpoint,outcome}, rdnsd_query_seconds{endpoint}
// and rdnsd_rows_served_total are counted; the rest are views: the
// aggregates sum or merge the per-endpoint families (pipeline.go), and
// the reload count and generation both read the generation counter.
const (
	metricQueries       = "rdnsd_queries_total"
	metricQueryErrors   = "rdnsd_query_errors_total"
	metricQueryCanceled = "rdnsd_query_canceled_total"
	metricQuerySeconds  = "rdnsd_query_seconds"
	metricRowsServed    = "rdnsd_rows_served_total"
	metricReloads       = "rdnsd_reloads_total"
	metricGeneration    = "rdnsd_store_generation"
	metricRequests      = "rdnsd_requests_total"
)

// v1 paging bounds.
const (
	defaultPageLimit = 1000
	maxPageLimit     = 10000
)

// Config assembles a Server.
type Config struct {
	// Sink receives the serving metrics; nil disables instrumentation.
	Sink telemetry.Sink
	// Tracer records correlated query spans; nil disables tracing.
	Tracer *telemetry.Tracer
	// Seed feeds span correlation IDs.
	Seed int64
	// Admission tunes the front door; the zero value admits everything.
	Admission AdmissionConfig
	// Reopen opens a fresh store for hot reload. nil disables Reload and
	// makes POST /v1/admin/reload answer 403.
	Reopen func() (*histstore.Store, error)
	// QueryLog, when non-nil, records one canonical wide event per
	// request (see QueryLogEntry); nil keeps the hot path log-free.
	QueryLog *QueryLog
}

// Server serves one history store over HTTP. It owns the store: Close
// drains and closes the current handle. All methods and handlers are safe
// for concurrent use, including concurrently with Reload and with Append
// on the live store.
type Server struct {
	sink   telemetry.Sink
	tracer *telemetry.Tracer
	seed   int64
	adm    *admission
	reopen func() (*histstore.Store, error)

	nextQ    atomic.Int64
	cur      atomic.Pointer[storeHandle]
	gen      atomic.Int64
	reloadMu sync.Mutex
	closed   atomic.Bool
	// replStatus holds a func() *rdnsclient.ReplicaStats lag source on
	// replica daemons (SetReplicaStatus); nil/absent on primaries.
	replStatus atomic.Value

	rowsServed  *telemetry.Counter
	replFetches *telemetry.Counter
	replErrors  *telemetry.Counter
	replBytes   *telemetry.Counter

	qlog *QueryLog
	// routes is the route table (pipeline.go), fixed by New.
	routes []*endpoint
}

// New creates a Server over st, taking ownership of it: the store is
// closed when the last query against it finishes after a Reload swap, or
// at Server.Close.
func New(st *histstore.Store, cfg Config) *Server {
	sink := cfg.Sink
	if sink == nil {
		sink = (*telemetry.Registry)(nil) // nil registry: valid no-op Sink
	}
	s := &Server{
		sink:   sink,
		tracer: cfg.Tracer,
		seed:   cfg.Seed,
		adm:    newAdmission(cfg.Admission, sink),
		reopen: cfg.Reopen,

		rowsServed:  sink.Counter(metricRowsServed),
		replFetches: sink.Counter(metricReplFetches),
		replErrors:  sink.Counter(metricReplErrors),
		replBytes:   sink.Counter(metricReplBytes),

		qlog: cfg.QueryLog,
	}
	s.routes = s.routeTable()
	// Each reload adds one generation: the reload count is the generation.
	sink.CounterView(metricReloads, func() uint64 { return uint64(s.gen.Load()) })
	sink.GaugeView(metricGeneration, s.gen.Load)
	s.cur.Store(newStoreHandle(st, 0))
	return s
}

// QueryLog returns the configured query log (nil without one), for the
// daemon to expose at /querylog and dump at shutdown.
func (s *Server) QueryLog() *QueryLog { return s.qlog }

// Reload opens a fresh store via the configured Reopen and swaps it in.
// In-flight queries finish on the old handle, which closes when the last
// of them releases it; no query is dropped or errored by the swap.
// Reloads are serialized. Callers should reload at snapshot boundaries:
// Open truncates a torn tail, so reopening a log mid-append would fork
// history from the writer's view.
func (s *Server) Reload() (rdnsclient.ReloadResponse, error) {
	if s.reopen == nil {
		return rdnsclient.ReloadResponse{}, errors.New("rdnsserve: reload not configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed.Load() {
		return rdnsclient.ReloadResponse{}, errors.New("rdnsserve: server closed")
	}
	st, err := s.reopen()
	if err != nil {
		return rdnsclient.ReloadResponse{}, err
	}
	gen := s.gen.Add(1)
	old := s.cur.Swap(newStoreHandle(st, gen))
	old.release()
	return rdnsclient.ReloadResponse{Reloaded: true, Generation: gen, Snapshots: st.Len()}, nil
}

// Close stops serving and closes the current store once in-flight
// queries drain. Subsequent requests answer 503.
func (s *Server) Close() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if h := s.cur.Swap(nil); h != nil {
		return h.release()
	}
	return nil
}

// acquireHandle pins the current store generation for one request. It
// returns nil only when the server is closed: a concurrent Reload can
// drain a handle between the Load and the acquire, in which case the loop
// re-reads the pointer and lands on the successor.
func (s *Server) acquireHandle() *storeHandle {
	for {
		h := s.cur.Load()
		if h == nil {
			return nil
		}
		if h.acquire() {
			return h
		}
	}
}

// StatsSnapshot assembles the v1 stats body for the exporter's health
// payload, on a generation it pins for the duration.
func (s *Server) StatsSnapshot() rdnsclient.StatsResponse {
	h := s.acquireHandle()
	if h != nil {
		defer h.release()
	}
	return s.stats(h)
}

// stats assembles the v1 stats body; its store block describes h, the
// generation the caller pinned (nil on a closed server: no store block).
func (s *Server) stats(h *storeHandle) rdnsclient.StatsResponse {
	resp := rdnsclient.StatsResponse{
		Generation: s.gen.Load(),
		Admission: rdnsclient.AdmissionStats{
			Admitted:     s.adm.verdicts[verdictAdmitted].Value(),
			RateLimited:  s.adm.verdicts[verdictRateLimited].Value(),
			Denied:       s.adm.verdicts[verdictDenied].Value(),
			Shed:         s.adm.verdicts[verdictShed].Value(),
			InFlight:     s.adm.inFlight.Load(),
			PeakInFlight: s.adm.peak.Load(),
			Clients:      s.adm.clients(),
		},
		Replica: s.replicaStatus(),
	}
	if hs := latency(s.routes); hs.Count > 0 {
		resp.Latency = rdnsclient.LatencyStats{
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
		if ex, ok := hs.QuantileExemplar(0.99); ok {
			resp.Latency.P99Corr = telemetry.CorrHex(ex.Corr)
			resp.Latency.P99Value = ex.Value
		}
	}
	for _, ep := range s.routes {
		es := rdnsclient.EndpointStats{
			OK:       ep.outcomes[outcomeOK].Value(),
			Errors:   ep.outcomes[outcomeError].Value(),
			Canceled: ep.outcomes[outcomeCanceled].Value(),
			Rejected: ep.outcomes[outcomeRejected].Value(),
		}
		if es == (rdnsclient.EndpointStats{}) {
			continue
		}
		if resp.Endpoints == nil {
			resp.Endpoints = make(map[string]rdnsclient.EndpointStats)
		}
		resp.Endpoints[ep.name] = es
	}
	if s.qlog != nil {
		resp.QueryLog = rdnsclient.QueryLogStats{
			Total:    s.qlog.Total(),
			Buffered: s.qlog.Len(),
			Slow:     s.qlog.SlowLen(),
		}
	}
	if h != nil {
		resp.Store = h.st.Stats()
		if total := resp.Store.CacheHits + resp.Store.CacheMisses; total > 0 {
			resp.CacheHitRate = float64(resp.Store.CacheHits) / float64(total)
		}
	}
	return resp
}

// adminReload is POST /v1/admin/reload; 403 when no Reopen is configured.
// Its log entry names the generation it produced, not the one it replaced.
func (s *Server) adminReload(request) (reply, *apiError) {
	if s.reopen == nil {
		return reply{}, errForbidden("reload is not enabled on this daemon")
	}
	resp, err := s.Reload()
	if err != nil {
		return reply{}, errInternal(err)
	}
	return reply{body: resp, gen: resp.Generation}, nil
}

// storeErr maps a store failure onto the envelope vocabulary. A canceled
// request context wins over whatever partial error the store surfaced.
func storeErr(ctx context.Context, err error) *apiError {
	switch {
	case ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return errCanceled()
	case errors.Is(err, histstore.ErrClosed):
		// Unreachable while the refcount holds the handle open; kept as a
		// defensive mapping.
		return errOverloaded()
	default:
		return errInternal(err)
	}
}

// parseInstant accepts RFC 3339 instants or bare campaign dates
// (2006-01-02, taken as midnight UTC).
func parseInstant(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	return time.Parse(dataset.DateFormat, s)
}

// window parses from/to, defaulting to all of history.
func window(st *histstore.Store, q url.Values) (from, to time.Time, aerr *apiError) {
	from, to, _ = st.Span()
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = parseInstant(v); err != nil {
			return from, to, errBadParam("from: not an RFC 3339 instant or %s date: %q", dataset.DateFormat, v)
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = parseInstant(v); err != nil {
			return from, to, errBadParam("to: not an RFC 3339 instant or %s date: %q", dataset.DateFormat, v)
		}
	}
	return from, to, nil
}

func prefixParam(q url.Values) (dnswire.Prefix, *apiError) {
	v := q.Get("prefix")
	if v == "" {
		return dnswire.Prefix{}, errBadParam("missing prefix parameter")
	}
	p, err := dnswire.ParsePrefix(v)
	if err != nil {
		return dnswire.Prefix{}, errBadParam("prefix: %v", err)
	}
	return p, nil
}

// pageLimit parses limit with the v1 bounds: 1..maxPageLimit, default
// defaultPageLimit. 0 is rejected — "no limit" is exactly the resource
// exhaustion pagination exists to prevent.
func pageLimit(q url.Values) (int, *apiError) {
	v := q.Get("limit")
	if v == "" {
		return defaultPageLimit, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > maxPageLimit {
		return 0, errBadParam("limit: must be an integer in [1, %d]: %q", maxPageLimit, v)
	}
	return n, nil
}

func handleAt(rq request) (reply, *apiError) {
	ctx, st, q := rq.ctx, rq.hd.st, rq.q
	if ctx.Err() != nil {
		return reply{}, errCanceled()
	}
	ipStr := q.Get("ip")
	if ipStr == "" {
		return reply{}, errBadParam("missing ip parameter")
	}
	ip, err := dnswire.ParseIPv4(ipStr)
	if err != nil {
		return reply{}, errBadParam("ip: %v", err)
	}
	when := time.Now().UTC()
	if v := q.Get("t"); v != "" {
		if when, err = parseInstant(v); err != nil {
			return reply{}, errBadParam("t: not an RFC 3339 instant or %s date: %q", dataset.DateFormat, v)
		}
	}
	name, found, err := st.At(ip, when)
	if errors.Is(err, histstore.ErrBeforeHistory) {
		return reply{}, errBeforeHistory(when.UTC().Format(time.RFC3339) + " precedes the store's history")
	}
	if err != nil {
		return reply{}, storeErr(ctx, err)
	}
	resolved, _ := st.Resolve(when)
	resp := rdnsclient.AtResponse{IP: ip.String(), T: when.UTC(), Resolved: resolved, Found: found}
	if found {
		resp.Name = name.String()
	}
	return reply{body: resp}, nil
}

func handleRange(rq request) (reply, *apiError) {
	ctx, st, q := rq.ctx, rq.hd.st, rq.q
	p, aerr := prefixParam(q)
	if aerr != nil {
		return reply{}, aerr
	}
	from, to, aerr := window(st, q)
	if aerr != nil {
		return reply{}, aerr
	}
	limit, aerr := pageLimit(q)
	if aerr != nil {
		return reply{}, aerr
	}
	bind := cursorBind("range", q.Get("prefix"), q.Get("from"), q.Get("to"))
	// Pin the window's upper bound at the resolved snapshot instant so
	// snapshots appended between pages cannot widen a defaulted window
	// mid-pagination; the cursor carries the pin forward.
	resolvedTo, ok := st.Resolve(to)
	if c := q.Get("cursor"); c != "" {
		cur, toUnix, aerr := decodeRangeCursor(c, bind)
		if aerr != nil {
			return reply{}, aerr
		}
		resolvedTo, ok = time.Unix(toUnix, 0).UTC(), true
		return rangePage(ctx, st, p, from, resolvedTo, cur, limit, bind)
	}
	if !ok {
		// The whole window precedes history: an empty, cursorless page.
		return reply{body: &rangeBody{prefix: p.String(), from: from.UTC(), to: to.UTC()}}, nil
	}
	return rangePage(ctx, st, p, from, resolvedTo, histstore.RangeCursor{}, limit, bind)
}

func rangePage(ctx context.Context, st *histstore.Store, p dnswire.Prefix, from, to time.Time, cur histstore.RangeCursor, limit int, bind uint64) (reply, *apiError) {
	rows, next, more, err := st.RangePage(ctx, p, from, to, cur, limit)
	if err != nil {
		return reply{}, storeErr(ctx, err)
	}
	body := &rangeBody{prefix: p.String(), from: from.UTC(), to: to.UTC(), rows: rows}
	if more {
		body.next = encodeRangeCursor(bind, next, to.Unix())
	}
	return reply{body: body, rows: len(rows)}, nil
}

func handleChurn(rq request) (reply, *apiError) {
	ctx, st, q := rq.ctx, rq.hd.st, rq.q
	p, aerr := prefixParam(q)
	if aerr != nil {
		return reply{}, aerr
	}
	from, to, aerr := window(st, q)
	if aerr != nil {
		return reply{}, aerr
	}
	days, err := st.ChurnContext(ctx, p, from, to)
	if err != nil {
		return reply{}, storeErr(ctx, err)
	}
	return reply{body: &churnBody{prefix: p.String(), from: from.UTC(), to: to.UTC(), days: days}}, nil
}

func handleName(rq request) (reply, *apiError) {
	ctx, st, q := rq.ctx, rq.hd.st, rq.q
	if ctx.Err() != nil {
		return reply{}, errCanceled()
	}
	token := q.Get("token")
	if token == "" {
		return reply{}, errBadParam("missing token parameter")
	}
	limit, aerr := pageLimit(q)
	if aerr != nil {
		return reply{}, aerr
	}
	bind := cursorBind("name", token)
	off := 0
	if c := q.Get("cursor"); c != "" {
		if off, aerr = decodeOffsetCursor(c, bind); aerr != nil {
			return reply{}, aerr
		}
	}
	postings := st.FindName(token)
	if off > len(postings) {
		off = len(postings)
	}
	end := off + limit
	if end > len(postings) {
		end = len(postings)
	}
	body := &nameBody{token: token, postings: postings[off:end]}
	if end < len(postings) {
		body.next = encodeOffsetCursor(bind, end)
	}
	return reply{body: body}, nil
}

func handleDays(rq request) (reply, *apiError) {
	if rq.ctx.Err() != nil {
		return reply{}, errCanceled()
	}
	times := rq.hd.st.Times()
	resp := rdnsclient.DaysResponse{Count: len(times), Days: times}
	if resp.Days == nil {
		resp.Days = []time.Time{}
	}
	return reply{body: resp}, nil
}

func (s *Server) handleStats(rq request) (reply, *apiError) {
	if rq.ctx.Err() != nil {
		return reply{}, errCanceled()
	}
	return reply{body: s.stats(rq.hd)}, nil
}
