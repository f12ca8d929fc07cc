package rdnsserve

// The request pipeline: one route table, one pass through the front door,
// one event per request, one observer. An endpoint is a row of the table;
// its class says which views of its requests' events exist — every one for
// a query; the counters and the query log for an admin call; only
// rdnsd_repl_* for a feed fetch (docs/observability.md has the table).
// Admin and feed requests pass the ACL only: an operator must be able to
// reload, and a replica to catch up on, a daemon busy shedding queries.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/telemetry"
)

type class uint8

const (
	classQuery class = iota
	classAdmin
	classFeed
)

// The outcomes partition an endpoint's requests, so the four counters of
// its rdnsd_requests_total family sum to its share of rdnsd_queries_total,
// which is their sum over the query and admin endpoints.
const (
	outcomeOK = iota
	outcomeError
	outcomeCanceled
	outcomeRejected
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "canceled", "rejected"}

// endpoint is one row of the route table.
type endpoint struct {
	name    string // endpoint label and query-log name
	pattern string // mux pattern; one ending in "/" carries a name in the rest of the path
	method  string
	class   class
	allowed []string // accepted query parameters, sorted; any other is a bad_param
	handle  func(request) (reply, *apiError)

	outcomes [numOutcomes]*telemetry.Counter // query and admin
	seconds  *telemetry.Histogram            // query
}

// request is what the pipeline hands an endpoint: the query string parsed
// once, and the store generation pinned for as long as the handler runs.
type request struct {
	ctx  context.Context
	hd   *storeHandle
	q    url.Values
	path string
	hdr  http.Header // response headers, for the feed's X-Repl-*
}

// reply is what an endpoint hands back: a JSON body or a raw feed chunk,
// and the two facts only a handler knows that views are derived from.
type reply struct {
	body any
	raw  []byte // non-nil: sent as application/octet-stream instead of body
	rows int    // rows served
	gen  int64  // the generation a reload produced
}

// event is the one record of one request. The embedded QueryLogEntry is
// filled in as the request proceeds and is logged as it stands; Corr and
// Params stay in their raw forms (corr, q) until something asks for text.
type event struct {
	QueryLogEntry
	ep       *endpoint
	start    time.Time
	corr     uint64
	fromWire bool // corr arrived in X-Rdns-Corr: the phases get child spans
	q        url.Values
	parseAt  time.Time // phase starts; zero when not reached or not clocked
	storeAt  time.Time
	rows     int
	chunk    int // feed bytes served
}

// routeTable builds the table and the instruments each row's class feeds.
func (s *Server) routeTable() []*endpoint {
	const get, post = http.MethodGet, http.MethodPost
	routes := []*endpoint{
		{name: "at", pattern: "/v1/at", method: get, class: classQuery, allowed: []string{"ip", "t"}, handle: handleAt},
		{name: "range", pattern: "/v1/range", method: get, class: classQuery, allowed: []string{"prefix", "from", "to", "limit", "cursor"}, handle: handleRange},
		{name: "churn", pattern: "/v1/churn", method: get, class: classQuery, allowed: []string{"prefix", "from", "to"}, handle: handleChurn},
		{name: "name", pattern: "/v1/name", method: get, class: classQuery, allowed: []string{"token", "limit", "cursor"}, handle: handleName},
		{name: "days", pattern: "/v1/days", method: get, class: classQuery, handle: handleDays},
		{name: "stats", pattern: "/v1/stats", method: get, class: classQuery, handle: s.handleStats},
		{name: "admin_reload", pattern: "/v1/admin/reload", method: post, class: classAdmin, handle: s.adminReload},
		{name: "repl_manifest", pattern: "/v1/repl/manifest", method: get, class: classFeed, handle: s.replManifest},
		{name: "repl_segment", pattern: "/v1/repl/segment/", method: get, class: classFeed, allowed: []string{"off", "n"}, handle: replSegment},
		{name: "repl_tail", pattern: "/v1/repl/tail/", method: get, class: classFeed, allowed: []string{"off", "n", "file"}, handle: replTail},
	}
	for _, ep := range routes {
		slices.Sort(ep.allowed) // checkParams prints it
		if ep.class == classFeed {
			continue
		}
		for o, outcome := range outcomeNames {
			ep.outcomes[o] = s.sink.Counter(metricRequests + `{endpoint="` + ep.name + `",outcome="` + outcome + `"}`)
		}
		if ep.class == classQuery {
			ep.seconds = s.sink.Histogram(metricQuerySeconds+`{endpoint="`+ep.name+`"}`, telemetry.DefaultLatencyBuckets())
		}
	}
	// The aggregates are views of the rows' instruments, over the table
	// as built.
	sum := func(outcomes ...int) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, ep := range routes {
				for _, o := range outcomes {
					n += ep.outcomes[o].Value()
				}
			}
			return n
		}
	}
	s.sink.CounterView(metricQueries, sum(outcomeOK, outcomeError, outcomeCanceled, outcomeRejected))
	s.sink.CounterView(metricQueryErrors, sum(outcomeError, outcomeRejected))
	s.sink.CounterView(metricQueryCanceled, sum(outcomeCanceled))
	s.sink.HistogramView(metricQuerySeconds, func() telemetry.HistogramSnapshot { return latency(routes) })
	return routes
}

// latency merges the query endpoints' rdnsd_query_seconds{endpoint}:
// rdnsd_query_seconds, and the latency block of /v1/stats.
func latency(routes []*endpoint) telemetry.HistogramSnapshot {
	var hs telemetry.HistogramSnapshot
	for _, ep := range routes {
		hs.Merge(ep.seconds.Snapshot())
	}
	return hs
}

// Handler serves the route table: the /v1 endpoints, the admin surface and
// the replication feed. Every other path answers the v1 not_found envelope
// and is not a request as far as any view is concerned.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range s.routes {
		mux.HandleFunc(ep.pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(ep, w, r) })
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		render(w, reply{}, errNotFound(r.URL.Path))
	})
	return mux
}

// serve is every endpoint's whole life: answer, render, observe.
func (s *Server) serve(ep *endpoint, w http.ResponseWriter, r *http.Request) {
	ev := event{ep: ep, start: time.Now()}
	ev.Endpoint, ev.Status, ev.Generation = ep.name, http.StatusOK, -1
	// Continue the caller's trace when the request carries a correlation
	// header; a query without one gets a server-side ID so its span,
	// exemplar and log entry still chain together.
	ev.corr = corrFromHeader(r.Header.Get(rdnsclient.CorrHeader))
	ev.fromWire = ev.corr != 0
	if ep.class == classQuery {
		if qn := int(s.nextQ.Add(1)); !ev.fromWire {
			ev.corr = telemetry.CorrID(s.seed, "rdnsd."+ep.name, qn)
		}
	}
	rep, aerr := s.answer(w, r, &ev)
	if aerr != nil {
		ev.Status, ev.Code = aerr.status, aerr.code
	} else if rep.gen != 0 {
		ev.Generation = rep.gen
	}
	ev.rows, ev.chunk = rep.rows, len(rep.raw)
	ev.Bytes = render(w, rep, aerr)
	ev.TotalNS = time.Since(ev.start).Nanoseconds()
	s.observe(&ev)
}

// answer takes the request through the front door — method, admission,
// one parse of the query string, unknown-parameter rejection, a pinned
// store generation — and into its handler, noting in ev how far it got.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, ev *event) (reply, *apiError) {
	ep := ev.ep
	if r.Method != ep.method {
		return reply{}, errMethodNotAllowed(r.Method)
	}
	if s.qlog != nil || s.adm.cfg.limiting() {
		ev.Client = clientKey(r)
	}
	exempt := ep.class != classQuery
	var aerr *apiError
	if ev.Admission, aerr = s.adm.admit(w, r, ev.Client, exempt); aerr != nil {
		return reply{}, aerr
	}
	if !exempt {
		defer s.adm.leave()
	}
	// The phase clocks run only for a reader: the query log, or child
	// spans of a trace that arrived on the wire.
	clocked := ep.class == classQuery && (s.qlog != nil || ev.fromWire && s.tracer != nil)
	if clocked {
		ev.parseAt = time.Now()
	}
	ev.q = r.URL.Query()
	aerr = checkParams(ev.q, ep.allowed)
	if clocked {
		ev.ParseNS = time.Since(ev.parseAt).Nanoseconds()
	}
	if aerr != nil {
		return reply{}, aerr
	}
	hd := s.acquireHandle()
	if hd == nil {
		return reply{}, errOverloaded()
	}
	defer hd.release()
	if ep.class == classQuery {
		ev.Generation = hd.gen
	}
	if clocked {
		ev.storeAt = time.Now()
	}
	rep, aerr := ep.handle(request{ctx: r.Context(), hd: hd, q: ev.q, path: r.URL.Path, hdr: w.Header()})
	if clocked {
		ev.StoreNS = time.Since(ev.storeAt).Nanoseconds()
	}
	return rep, aerr
}

// checkParams rejects unknown query parameters — typos like "prefx="
// fail loudly instead of silently querying all of history. allowed is
// shared by every request of a route and must not be modified.
func checkParams(q url.Values, allowed []string) *apiError {
	for k := range q {
		if !slices.Contains(allowed, k) {
			return errBadParam("unknown parameter %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// wireBody is a reply body the wire contract encodes itself: the five query
// shapes of rdnsclient, and this package's row-typed forms of them
// (bodies.go). Every other body — stats, the admin and feed documents, the
// error envelope — is cold and goes through encoding/json.
type wireBody interface {
	AppendJSON(dst []byte) []byte
}

// renderPool recycles the buffers responses are encoded into; one that grew
// past maxPooledRender is dropped instead, so a single 10000-row page does
// not stay resident.
var renderPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRender = 256 << 10

// The two Content-Type values, as the one-element slices a header map
// holds: every response shares them instead of allocating its own. Nothing
// writes through a header value (Set and Add replace or copy), so sharing
// is safe.
var (
	typeJSON  = []string{"application/json"}
	typeOctet = []string{"application/octet-stream"}
)

// render writes the verdict — the v1 error envelope, a feed chunk, or the
// JSON body — with its Content-Length, in one Write, and reports the body
// size written. It is the one place a response is encoded.
func render(w http.ResponseWriter, rep reply, aerr *apiError) int {
	hdr := w.Header()
	if aerr == nil && rep.raw != nil {
		hdr["Content-Type"] = typeOctet
		hdr.Set("Content-Length", strconv.Itoa(len(rep.raw)))
		n, _ := w.Write(rep.raw)
		return n
	}
	bp := renderPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if aerr != nil {
		rep.body = rdnsclient.ErrorEnvelope{
			Error: rdnsclient.ErrorDetail{Code: aerr.code, Message: aerr.msg},
		}
	}
	if body, ok := rep.body.(wireBody); ok {
		buf = body.AppendJSON(buf)
	} else if doc, err := json.Marshal(rep.body); err == nil {
		buf = append(append(buf, doc...), '\n') // what Encoder.Encode writes
	}
	hdr["Content-Type"] = typeJSON
	hdr.Set("Content-Length", strconv.Itoa(len(buf)))
	if aerr != nil {
		w.WriteHeader(aerr.status)
	}
	n, _ := w.Write(buf)
	if cap(buf) <= maxPooledRender {
		*bp = buf
		renderPool.Put(bp)
	}
	return n
}

// observe derives every view of a finished request from its event, and is
// the only writer of each: the latency histograms, their exemplars, the
// query span and the log's total_ns all read the one TotalNS.
func (s *Server) observe(ev *event) {
	ep, failed := ev.ep, ev.Status != http.StatusOK
	s.adm.verdicts[ev.Admission].Inc() // none when the front door was not reached
	if ep.class == classFeed {
		s.replFetches.Inc()
		if failed {
			s.replErrors.Inc()
		}
		s.replBytes.Add(uint64(ev.chunk))
		return
	}

	// Admission refusals count as "rejected" per endpoint and, like every
	// other failure, as rdnsd_query_errors_total in the aggregate.
	outcome := outcomeOK
	switch {
	case !failed:
	case ev.Status == statusClientClosedRequest:
		outcome = outcomeCanceled
	case ev.Admission != "" && ev.Admission != verdictAdmitted:
		outcome = outcomeRejected
	default:
		outcome = outcomeError
	}
	ep.outcomes[outcome].Inc()

	if ep.class == classQuery {
		ep.seconds.ObserveExemplar(seconds(ev.TotalNS), ev.corr)
		s.rowsServed.Add(uint64(ev.rows))
		// Child spans only for wire-propagated traces: local uncorrelated
		// traffic keeps its single root span and single ring slot.
		if ev.fromWire && !ev.parseAt.IsZero() {
			s.span("rdnsd.parse", ep.pattern, ev, ev.parseAt, ev.ParseNS).End()
		}
		if ev.fromWire && !ev.storeAt.IsZero() {
			sp := s.span("rdnsd.store", ep.pattern, ev, ev.storeAt, ev.StoreNS)
			// The generation event is the stitch key: on a replica it names
			// the catch-up sync that delivered the data this request read.
			sp.Event("gen", uint64(ev.Generation))
			if failed {
				sp.Event("error", uint64(ev.Status))
			}
			sp.End()
		}
		sp := s.span("rdnsd.query", ep.name, ev, ev.start, ev.TotalNS)
		if failed {
			sp.Event("error", uint64(ev.Status))
		}
		sp.End()
	}

	if s.qlog != nil {
		ev.Corr = telemetry.CorrHex(ev.corr)
		ev.Params = paramsFingerprint(ev.q)
		s.qlog.record(ev.QueryLogEntry)
	}
}

// span opens a span of ev's trace stamped with the clock readings the event
// took, not with the time observe runs; End publishes it as stamped.
func (s *Server) span(name, attr string, ev *event, at time.Time, ns int64) *telemetry.Span {
	sp := s.tracer.StartSpanCorr(name, attr, ev.corr)
	if sp != nil {
		sp.StartAt, sp.EndAt = at, at.Add(time.Duration(ns))
	}
	return sp
}
