// Package rdnsserve is rdnsd's serving layer: the versioned /v1 query API
// over a histstore, with admission control (per-client token buckets,
// ACLs, in-flight load shedding) and hot reload onto a freshly opened store
// without dropping in-flight queries. cmd/rdnsd wires it to flags and
// signals; cmd/rdnsload drives it in-process; the wire contract lives in
// internal/rdnsclient. See docs/api.md.
package rdnsserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
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
	// Compact tunes every compaction this server starts — the daemon's
	// background loop and POST /v1/admin/compact alike — so one
	// -compact-min-seal flag governs both triggers.
	Compact histstore.CompactOptions
	// QueryLog, when non-nil, records one canonical wide event per
	// request (see QueryLogEntry); nil keeps the hot path log-free.
	QueryLog *QueryLog
}

// Server serves one history store over HTTP. It owns the store: Close
// drains and closes the current handle. All methods and handlers are safe
// for concurrent use, including concurrently with Reload and with Append
// on the live store.
type Server struct {
	sink    telemetry.Sink
	tracer  *telemetry.Tracer
	seed    int64
	adm     *admission
	reopen  func() (*histstore.Store, error)
	compact histstore.CompactOptions

	nextQ    atomic.Int64
	cur      atomic.Pointer[storeHandle]
	gen      atomic.Int64
	reloadMu sync.Mutex
	closed   atomic.Bool
	// replStatus holds a func() *rdnsclient.ReplicaStats lag source on
	// replica daemons (SetReplicaStatus); nil/absent on primaries.
	replStatus atomic.Value

	queries       *telemetry.Counter
	queryErrors   *telemetry.Counter
	queryCanceled *telemetry.Counter
	rowsServed    *telemetry.Counter
	reloads       *telemetry.Counter
	querySeconds  *telemetry.Histogram
	genGauge      *telemetry.Gauge

	qlog *QueryLog
	// endpoints maps route name -> per-outcome request counters; built
	// as routes register, read by StatsSnapshot.
	epMu      sync.Mutex
	endpoints map[string]*outcomeCounters
}

// outcomeCounters is one endpoint's rdnsd_requests_total{endpoint,outcome}
// family. The four outcomes partition the endpoint's requests, so their
// sum equals the endpoint's share of rdnsd_queries_total — asserted by
// the consistency test.
type outcomeCounters struct {
	ok       *telemetry.Counter
	errc     *telemetry.Counter
	canceled *telemetry.Counter
	rejected *telemetry.Counter
}

// outcomesFor registers (or returns) the outcome family for endpoint.
func (s *Server) outcomesFor(endpoint string) *outcomeCounters {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	if oc, ok := s.endpoints[endpoint]; ok {
		return oc
	}
	label := func(outcome string) string {
		return metricRequests + `{endpoint="` + endpoint + `",outcome="` + outcome + `"}`
	}
	oc := &outcomeCounters{
		ok:       s.sink.Counter(label("ok")),
		errc:     s.sink.Counter(label("error")),
		canceled: s.sink.Counter(label("canceled")),
		rejected: s.sink.Counter(label("rejected")),
	}
	s.endpoints[endpoint] = oc
	return oc
}

// reqRec accumulates one request's observability record as it moves
// through the pipeline: route fills corr, serveOne fills the admission
// verdict, pinned generation, and phase latencies. fromWire marks a
// correlation ID that arrived in X-Rdns-Corr — only those requests get
// per-phase child spans, so local uncorrelated traffic pays one span
// exactly as before this layer existed.
type reqRec struct {
	corr      uint64
	fromWire  bool
	client    string
	admission string
	gen       int64
	parseNS   int64
	storeNS   int64
}

// countWriter counts bytes on their way to the response, so the query
// log can record body sizes without buffering a second copy.
type countWriter struct {
	w http.ResponseWriter
	n int
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += n
	return n, err
}

// admissionOutcome maps an admission refusal onto the query-log
// vocabulary by its HTTP status.
func admissionOutcome(aerr *apiError) string {
	switch aerr.status {
	case http.StatusTooManyRequests:
		return "ratelimited"
	case http.StatusForbidden:
		return "denied"
	default:
		return "shed"
	}
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
		sink:    sink,
		tracer:  cfg.Tracer,
		seed:    cfg.Seed,
		adm:     newAdmission(cfg.Admission, sink),
		reopen:  cfg.Reopen,
		compact: cfg.Compact,

		queries:       sink.Counter(metricQueries),
		queryErrors:   sink.Counter(metricQueryErrors),
		queryCanceled: sink.Counter(metricQueryCanceled),
		rowsServed:    sink.Counter(metricRowsServed),
		reloads:       sink.Counter(metricReloads),
		querySeconds:  sink.Histogram(metricQuerySeconds, telemetry.DefaultLatencyBuckets()),
		genGauge:      sink.Gauge(metricGeneration),

		qlog:      cfg.QueryLog,
		endpoints: make(map[string]*outcomeCounters),
	}
	s.cur.Store(newStoreHandle(st, 0))
	return s
}

// QueryLog returns the configured query log (nil without one), for the
// daemon to expose at /querylog and dump at shutdown.
func (s *Server) QueryLog() *QueryLog { return s.qlog }

// Generation reports how many reloads have completed.
func (s *Server) Generation() int64 { return s.gen.Load() }

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
	s.reloads.Inc()
	s.genGauge.Set(gen)
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

// StatsSnapshot assembles the v1 stats body (also the exporter's health
// payload).
func (s *Server) StatsSnapshot() rdnsclient.StatsResponse {
	resp := rdnsclient.StatsResponse{
		Generation: s.gen.Load(),
		Admission: rdnsclient.AdmissionStats{
			Admitted:     s.adm.admitted.Value(),
			RateLimited:  s.adm.rateLimited.Value(),
			Denied:       s.adm.denied.Value(),
			Shed:         s.adm.shed.Value(),
			InFlight:     s.adm.inFlight.Load(),
			PeakInFlight: s.adm.peak.Load(),
			Clients:      s.adm.clients(),
		},
		Replica: s.replicaStatus(),
	}
	if hs := s.querySeconds.Snapshot(); hs.Count > 0 {
		resp.Latency = rdnsclient.LatencyStats{
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
		if ex, ok := hs.QuantileExemplar(0.99); ok {
			resp.Latency.P99Corr = fmt.Sprintf("%016x", ex.Corr)
			resp.Latency.P99Value = ex.Value
		}
	}
	s.epMu.Lock()
	for name, oc := range s.endpoints {
		es := rdnsclient.EndpointStats{
			OK:       oc.ok.Value(),
			Errors:   oc.errc.Value(),
			Canceled: oc.canceled.Value(),
			Rejected: oc.rejected.Value(),
		}
		if es == (rdnsclient.EndpointStats{}) {
			continue
		}
		if resp.Endpoints == nil {
			resp.Endpoints = make(map[string]rdnsclient.EndpointStats)
		}
		resp.Endpoints[name] = es
	}
	s.epMu.Unlock()
	if s.qlog != nil {
		resp.QueryLog = rdnsclient.QueryLogStats{
			Total:    s.qlog.Total(),
			Buffered: s.qlog.Len(),
			Slow:     s.qlog.SlowLen(),
		}
	}
	if h := s.acquireHandle(); h != nil {
		st := h.st.Stats()
		resp.Store = rdnsclient.StoreStats{
			Snapshots:       st.Snapshots,
			Blocks:          st.Blocks,
			BaseFrames:      st.BaseFrames,
			DeltaFrames:     st.DeltaFrames,
			Bytes:           st.Bytes,
			Reconstructions: st.Reconstructions,
			CacheHits:       st.CacheHits,
			CacheMisses:     st.CacheMisses,
			CacheEntries:    st.CacheEntries,
			TailBytes:       st.TailBytes,
			SealedBytes:     st.SealedBytes,
			Segments:        st.Segments,
			HotSegments:     st.HotSegments,
			TierLoads:       st.TierLoads,
			TierEvictions:   st.TierEvictions,
			Compaction: rdnsclient.CompactionStats{
				Runs:            st.Compaction.Runs,
				SealedSnapshots: st.Compaction.SealedSnapshots,
				ReclaimedBytes:  st.Compaction.ReclaimedBytes,
				Running:         st.Compaction.Running,
			},
		}
		for _, w := range st.Writers {
			resp.Store.Writers = append(resp.Store.Writers, rdnsclient.WriterStats{
				ID:            w.ID,
				Snapshots:     w.Snapshots,
				TailSnapshots: w.TailSnapshots,
				Segments:      w.Segments,
			})
		}
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			resp.CacheHitRate = float64(st.CacheHits) / float64(total)
		}
		h.release()
	}
	return resp
}

// handlerFunc is one v1 endpoint's logic: pure store work, no HTTP.
type handlerFunc func(ctx context.Context, st *histstore.Store, q url.Values) (any, *apiError)

// Handler builds the daemon's route table: the /v1 endpoints, the admin
// surface and the replication feed. Every other path answers the v1
// not_found envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/at", s.route("at", []string{"ip", "t"}, s.handleAt))
	mux.HandleFunc("/v1/range", s.route("range", []string{"prefix", "from", "to", "limit", "cursor"}, s.handleRange))
	mux.HandleFunc("/v1/churn", s.route("churn", []string{"prefix", "from", "to"}, s.handleChurn))
	mux.HandleFunc("/v1/name", s.route("name", []string{"token", "limit", "cursor"}, s.handleName))
	mux.HandleFunc("/v1/days", s.route("days", nil, s.handleDays))
	mux.HandleFunc("/v1/stats", s.route("stats", []string{"divergence"}, s.handleStats))
	mux.HandleFunc("/v1/admin/reload", s.adminReload())
	mux.HandleFunc("/v1/admin/compact", s.adminCompact())
	mux.HandleFunc("/v1/repl/manifest", s.replManifest())
	mux.HandleFunc("/v1/repl/segment/", s.replSegment())
	mux.HandleFunc("/v1/repl/tail/", s.replTail())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeV1Error(w, errNotFound(r.URL.Path))
	})
	return mux
}

// writeV1Error renders the envelope and reports the body size written.
func writeV1Error(w http.ResponseWriter, aerr *apiError) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.status)
	cw := &countWriter{w: w}
	json.NewEncoder(cw).Encode(rdnsclient.ErrorEnvelope{
		Error: rdnsclient.ErrorDetail{Code: aerr.code, Message: aerr.msg},
	})
	return cw.n
}

// countOutcome splits one request verdict into the aggregate counters
// and its endpoint's outcome family. Admission refusals count as
// "rejected" (they are still queryErrors in the aggregate, preserving
// the pre-existing meaning of rdnsd_query_errors_total).
func (s *Server) countOutcome(oc *outcomeCounters, aerr *apiError, rec *reqRec) {
	switch {
	case aerr == nil:
		oc.ok.Inc()
	case aerr.status == statusClientClosedRequest:
		s.queryCanceled.Inc()
		oc.canceled.Inc()
	case rec != nil && rec.admission != "" && rec.admission != "admitted":
		s.queryErrors.Inc()
		oc.rejected.Inc()
	default:
		s.queryErrors.Inc()
		oc.errc.Inc()
	}
}

// route wraps a v1 endpoint with the full pipeline: method check,
// admission, strict parameter validation, store-handle pinning,
// instrumentation (aggregate + per-endpoint latency and outcomes, a
// correlated span continuing the client's X-Rdns-Corr trace, latency
// exemplars, the query log), and envelope rendering.
func (s *Server) route(name string, allowed []string, h handlerFunc) http.HandlerFunc {
	// Sorted once, here: requests only read the slice, and checkParams
	// lists it in its error message.
	sort.Strings(allowed)
	lat := s.sink.Histogram(metricQuerySeconds+`{endpoint="`+name+`"}`, telemetry.DefaultLatencyBuckets())
	outcomes := s.outcomesFor(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		qn := int(s.nextQ.Add(1))
		// Continue the caller's trace when the request carries a
		// correlation header; otherwise mint a server-side ID so the
		// span, exemplar, and query-log entry still chain together.
		corr := corrFromHeader(r.Header.Get(rdnsclient.CorrHeader))
		fromWire := corr != 0
		if corr == 0 {
			corr = telemetry.CorrID(s.seed, "rdnsd."+name, qn)
		}
		span := s.tracer.StartSpanCorr("rdnsd.query", name, corr)
		s.queries.Inc()
		rec := reqRec{corr: corr, fromWire: fromWire, gen: -1}
		out, aerr := s.serveOne(w, r, http.MethodGet, allowed, h, &rec)
		el := time.Since(start).Seconds()
		s.querySeconds.ObserveExemplar(el, corr)
		lat.ObserveExemplar(el, corr)
		s.countOutcome(outcomes, aerr, &rec)
		if aerr != nil {
			span.Event("error", uint64(aerr.status))
		}
		span.End()
		s.finish(w, r, name, start, out, aerr, &rec)
	}
}

// finish is every instrumented endpoint's epilogue: it renders the verdict
// (the v1 error envelope for aerr, out as JSON otherwise) and, with a query
// log configured, records the request's wide event.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, name string, start time.Time, out any, aerr *apiError, rec *reqRec) {
	status, code, bytes := http.StatusOK, "", 0
	if aerr != nil {
		bytes = writeV1Error(w, aerr)
		status, code = aerr.status, aerr.code
	} else {
		w.Header().Set("Content-Type", "application/json")
		cw := &countWriter{w: w}
		json.NewEncoder(cw).Encode(out)
		bytes = cw.n
	}
	if s.qlog == nil {
		return
	}
	s.qlog.record(QueryLogEntry{
		Corr:       fmt.Sprintf("%016x", rec.corr),
		Endpoint:   name,
		Client:     rec.client,
		Params:     paramsFingerprint(r.URL.Query()),
		Status:     status,
		Code:       code,
		Admission:  rec.admission,
		Generation: rec.gen,
		ParseNS:    rec.parseNS,
		StoreNS:    rec.storeNS,
		TotalNS:    time.Since(start).Nanoseconds(),
		Bytes:      bytes,
	})
}

// serveOne runs admission, validation, and the handler against a pinned
// store handle, recording the admission verdict, phase latencies, and
// pinned generation into rec. The validation and store phases run under
// child spans sharing the request's correlation ID, so a stitched trace
// shows where a slow request spent its time.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, method string, allowed []string, h handlerFunc, rec *reqRec) (any, *apiError) {
	if r.Method != method {
		return nil, errMethodNotAllowed(r.Method)
	}
	timed := s.qlog != nil
	if timed {
		rec.client = clientKey(r)
	}
	release, aerr := s.adm.admit(w, r, strings.HasPrefix(r.URL.Path, "/v1/admin/"))
	if aerr != nil {
		rec.admission = admissionOutcome(aerr)
		return nil, aerr
	}
	rec.admission = "admitted"
	defer release()
	// Per-phase child spans only for wire-propagated traces: local
	// uncorrelated traffic keeps its single root span (and single ring
	// slot) exactly as before phase tracing existed.
	phased := rec.fromWire && s.tracer != nil
	var phaseStart time.Time
	if timed {
		phaseStart = time.Now()
	}
	var pspan *telemetry.Span
	if phased {
		pspan = s.tracer.StartSpanCorr("rdnsd.parse", r.URL.Path, rec.corr)
	}
	q := r.URL.Query()
	aerr = checkParams(q, allowed)
	pspan.End()
	if timed {
		rec.parseNS = time.Since(phaseStart).Nanoseconds()
	}
	if aerr != nil {
		return nil, aerr
	}
	hd := s.acquireHandle()
	if hd == nil {
		return nil, errOverloaded()
	}
	defer hd.release()
	rec.gen = hd.gen
	if timed {
		phaseStart = time.Now()
	}
	var sspan *telemetry.Span
	if phased {
		sspan = s.tracer.StartSpanCorr("rdnsd.store", r.URL.Path, rec.corr)
		// The generation event is the stitch key: on a replica it names
		// the catch-up sync that delivered the data this request read.
		sspan.Event("gen", uint64(hd.gen))
	}
	out, aerr := h(r.Context(), hd.st, q)
	if aerr != nil {
		sspan.Event("error", uint64(aerr.status))
	}
	sspan.End()
	if timed {
		rec.storeNS = time.Since(phaseStart).Nanoseconds()
	}
	return out, aerr
}

// checkParams rejects unknown query parameters — typos like "prefx="
// fail loudly instead of silently querying all of history. allowed is
// shared by every request of a route and must not be modified.
func checkParams(q url.Values, allowed []string) *apiError {
	for k := range q {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			return errBadParam("unknown parameter %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// adminRoute wraps an admin endpoint with the shared accounting: the
// aggregate counter, the endpoint's outcome family, and the query log.
// Admin endpoints skip spans and latency histograms — they are rare
// operator actions, not query traffic.
func (s *Server) adminRoute(name string, h func(w http.ResponseWriter, r *http.Request, rec *reqRec) (any, *apiError)) http.HandlerFunc {
	outcomes := s.outcomesFor(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.queries.Inc()
		rec := reqRec{corr: corrFromHeader(r.Header.Get(rdnsclient.CorrHeader)), gen: -1}
		out, aerr := h(w, r, &rec)
		s.countOutcome(outcomes, aerr, &rec)
		s.finish(w, r, name, start, out, aerr, &rec)
	}
}

// adminReload is POST /v1/admin/reload. Exempt from the token bucket (an
// operator must be able to reload a daemon that is busy shedding) but
// still behind the ACL; 403 when no Reopen is configured.
func (s *Server) adminReload() http.HandlerFunc {
	return s.adminRoute("admin_reload", func(w http.ResponseWriter, r *http.Request, rec *reqRec) (any, *apiError) {
		if r.Method != http.MethodPost {
			return nil, errMethodNotAllowed(r.Method)
		}
		rec.client = clientKey(r)
		release, aerr := s.adm.admit(w, r, true)
		if aerr != nil {
			rec.admission = admissionOutcome(aerr)
			return nil, aerr
		}
		rec.admission = "admitted"
		defer release()
		if s.reopen == nil {
			return nil, errForbidden("reload is not enabled on this daemon")
		}
		resp, err := s.Reload()
		if err != nil {
			return nil, errInternal(err)
		}
		rec.gen = resp.Generation
		return resp, nil
	})
}

// adminCompact is POST /v1/admin/compact: seal every idle writer's tail
// into segments, in place, while queries keep flowing on this same
// handle. Like reload it is exempt from the token bucket but behind the
// ACL. A compaction already in flight answers 409.
func (s *Server) adminCompact() http.HandlerFunc {
	return s.adminRoute("admin_compact", func(w http.ResponseWriter, r *http.Request, rec *reqRec) (any, *apiError) {
		if r.Method != http.MethodPost {
			return nil, errMethodNotAllowed(r.Method)
		}
		rec.client = clientKey(r)
		release, aerr := s.adm.admit(w, r, true)
		if aerr != nil {
			rec.admission = admissionOutcome(aerr)
			return nil, aerr
		}
		rec.admission = "admitted"
		defer release()
		results, err := s.Compact(r.Context())
		if err != nil {
			if errors.Is(err, histstore.ErrCompactBusy) {
				return nil, &apiError{status: http.StatusConflict, code: rdnsclient.CodeCompactBusy, msg: err.Error()}
			}
			return nil, errInternal(err)
		}
		resp := rdnsclient.CompactResponse{}
		for _, res := range results {
			resp.Results = append(resp.Results, rdnsclient.CompactWriterResult{
				Writer:       res.Writer,
				Sealed:       res.Sealed,
				Segment:      res.Segment,
				TailBytes:    res.TailBytes,
				SegmentBytes: res.SegmentBytes,
				Skipped:      res.Skipped,
			})
		}
		return resp, nil
	})
}

// Compact seals every idle writer's tail of the currently served store
// into segments, in place — queries keep answering bit-identically on
// this same handle throughout. Writers owned by a live campaign process
// are skipped with a per-writer reason. Exposed for the daemon's
// -compact-interval background loop; POST /v1/admin/compact routes here
// too. Without an explicit override, Config.Compact applies.
func (s *Server) Compact(ctx context.Context, opts ...histstore.CompactOptions) ([]histstore.CompactResult, error) {
	o := s.compact
	if len(opts) > 0 {
		o = opts[0]
	}
	hd := s.acquireHandle()
	if hd == nil {
		return nil, errors.New("rdnsserve: server is closed")
	}
	defer hd.release()
	return hd.st.Compact(ctx, o)
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
	times := st.Times()
	if len(times) > 0 {
		from, to = times[0], times[len(times)-1]
	}
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

func (s *Server) handleAt(ctx context.Context, st *histstore.Store, q url.Values) (any, *apiError) {
	if ctx.Err() != nil {
		return nil, errCanceled()
	}
	ipStr := q.Get("ip")
	if ipStr == "" {
		return nil, errBadParam("missing ip parameter")
	}
	ip, err := dnswire.ParseIPv4(ipStr)
	if err != nil {
		return nil, errBadParam("ip: %v", err)
	}
	when := time.Now().UTC()
	if v := q.Get("t"); v != "" {
		if when, err = parseInstant(v); err != nil {
			return nil, errBadParam("t: not an RFC 3339 instant or %s date: %q", dataset.DateFormat, v)
		}
	}
	name, found, err := st.At(ip, when)
	if errors.Is(err, histstore.ErrBeforeHistory) {
		return nil, errBeforeHistory(when.UTC().Format(time.RFC3339) + " precedes the store's history")
	}
	if err != nil {
		return nil, storeErr(ctx, err)
	}
	resolved, _ := st.Resolve(when)
	resp := rdnsclient.AtResponse{IP: ip.String(), T: when.UTC(), Resolved: resolved, Found: found}
	if found {
		resp.Name = name.String()
	}
	return resp, nil
}

func (s *Server) handleRange(ctx context.Context, st *histstore.Store, q url.Values) (any, *apiError) {
	p, aerr := prefixParam(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := window(st, q)
	if aerr != nil {
		return nil, aerr
	}
	limit, aerr := pageLimit(q)
	if aerr != nil {
		return nil, aerr
	}
	bind := cursorBind("range", q.Get("prefix"), q.Get("from"), q.Get("to"))
	// Pin the window's upper bound at the resolved snapshot instant so
	// snapshots appended between pages cannot widen a defaulted window
	// mid-pagination; the cursor carries the pin forward.
	resolvedTo, ok := st.Resolve(to)
	if c := q.Get("cursor"); c != "" {
		cur, toUnix, aerr := decodeRangeCursor(c, bind)
		if aerr != nil {
			return nil, aerr
		}
		resolvedTo, ok = time.Unix(toUnix, 0).UTC(), true
		return s.rangePage(ctx, st, p, from, resolvedTo, cur, limit, bind)
	}
	if !ok {
		// The whole window precedes history: an empty, cursorless page.
		return rdnsclient.RangeResponse{
			Prefix: p.String(), From: from.UTC(), To: to.UTC(), Rows: []rdnsclient.RangeRow{},
		}, nil
	}
	return s.rangePage(ctx, st, p, from, resolvedTo, histstore.RangeCursor{}, limit, bind)
}

func (s *Server) rangePage(ctx context.Context, st *histstore.Store, p dnswire.Prefix, from, to time.Time, cur histstore.RangeCursor, limit int, bind uint64) (any, *apiError) {
	rows, next, more, err := st.RangePage(ctx, p, from, to, cur, limit)
	if err != nil {
		return nil, storeErr(ctx, err)
	}
	resp := rdnsclient.RangeResponse{
		Prefix: p.String(),
		From:   from.UTC(),
		To:     to.UTC(),
		Count:  len(rows),
		Rows:   make([]rdnsclient.RangeRow, 0, len(rows)),
	}
	for _, row := range rows {
		resp.Rows = append(resp.Rows, rdnsclient.RangeRow{Date: row.Date, IP: row.IP.String(), PTR: row.PTR.String()})
	}
	if more {
		resp.NextCursor = encodeRangeCursor(bind, next, to.Unix())
	}
	s.rowsServed.Add(uint64(len(resp.Rows)))
	return resp, nil
}

func (s *Server) handleChurn(ctx context.Context, st *histstore.Store, q url.Values) (any, *apiError) {
	p, aerr := prefixParam(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := window(st, q)
	if aerr != nil {
		return nil, aerr
	}
	days, err := st.ChurnContext(ctx, p, from, to)
	if err != nil {
		return nil, storeErr(ctx, err)
	}
	resp := rdnsclient.ChurnResponse{
		Prefix: p.String(), From: from.UTC(), To: to.UTC(), Days: make([]rdnsclient.ChurnDay, 0, len(days)),
	}
	for _, d := range days {
		resp.Days = append(resp.Days, rdnsclient.ChurnDay{Date: d.Date, Added: d.Added, Removed: d.Removed, Changed: d.Changed})
	}
	return resp, nil
}

func (s *Server) handleName(ctx context.Context, st *histstore.Store, q url.Values) (any, *apiError) {
	if ctx.Err() != nil {
		return nil, errCanceled()
	}
	token := q.Get("token")
	if token == "" {
		return nil, errBadParam("missing token parameter")
	}
	limit, aerr := pageLimit(q)
	if aerr != nil {
		return nil, aerr
	}
	bind := cursorBind("name", token)
	off := 0
	if c := q.Get("cursor"); c != "" {
		if off, aerr = decodeOffsetCursor(c, bind); aerr != nil {
			return nil, aerr
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
	resp := rdnsclient.NameResponse{Token: token, Postings: make([]rdnsclient.NamePosting, 0, end-off)}
	for _, p := range postings[off:end] {
		resp.Postings = append(resp.Postings, rdnsclient.NamePosting{Prefix: p.Prefix.String(), First: p.First, Last: p.Last})
	}
	resp.Count = len(resp.Postings)
	if end < len(postings) {
		resp.NextCursor = encodeOffsetCursor(bind, end)
	}
	return resp, nil
}

func (s *Server) handleDays(ctx context.Context, st *histstore.Store, _ url.Values) (any, *apiError) {
	if ctx.Err() != nil {
		return nil, errCanceled()
	}
	times := st.Times()
	resp := rdnsclient.DaysResponse{Count: len(times), Days: times}
	if resp.Days == nil {
		resp.Days = []time.Time{}
	}
	return resp, nil
}

func (s *Server) handleStats(ctx context.Context, st *histstore.Store, q url.Values) (any, *apiError) {
	if ctx.Err() != nil {
		return nil, errCanceled()
	}
	resp := s.StatsSnapshot()
	// The divergence block walks every live record across writers, so it
	// is opt-in: any non-empty value of ?divergence enables it.
	if q.Get("divergence") != "" {
		div := st.Divergence()
		out := &rdnsclient.DivergenceStats{Addresses: div.Addresses}
		for _, w := range div.Writers {
			out.Writers = append(out.Writers, rdnsclient.WriterDivergence{
				ID:         w.ID,
				Records:    w.Records,
				Agreements: w.Agreements,
				Conflicts:  w.Conflicts,
				Missing:    w.Missing,
				Exclusive:  w.Exclusive,
			})
		}
		resp.Divergence = out
	}
	return resp, nil
}
