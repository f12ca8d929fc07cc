package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/telemetry"
)

// openReader opens a store the way cmd/rdnsd does.
func openReader(dir string, reg *telemetry.Registry) (*histstore.Store, error) {
	return histstore.Open(dir,
		histstore.WithCache(4096),
		histstore.WithTelemetry(reg),
		histstore.WithHotSegments(histstore.DefaultHotSegments),
		histstore.WithReadOnly())
}

// daemon is one rdnsd stood up inside the harness process: the serving
// layer over a store, behind a real loopback TCP listener.
type daemon struct {
	srv     *rdnsserve.Server
	mw      *handlerSpans
	httpSrv *http.Server
	url     string
	done    chan error
}

// startDaemon serves st under cfg on 127.0.0.1:0. The server owns st from
// here on.
func startDaemon(st *histstore.Store, cfg rdnsserve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &daemon{srv: rdnsserve.New(st, cfg), done: make(chan error, 1)}
	d.mw = &handlerSpans{inner: d.srv.Handler()}
	d.httpSrv = &http.Server{Handler: d.mw}
	d.url = "http://" + ln.Addr().String()
	go func() { d.done <- d.httpSrv.Serve(ln) }()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.httpSrv.Shutdown(ctx)
	<-d.done
	d.srv.Close()
}

// rdnsdConfig is cmd/rdnsd's default serving config: registry sink and
// tracer, no admission limits, hot reload enabled.
func rdnsdConfig(seed uint64, reg *telemetry.Registry, reopen func() (*histstore.Store, error)) rdnsserve.Config {
	return rdnsserve.Config{
		Sink:   reg,
		Tracer: telemetry.NewTracer(int64(seed), 4096),
		Seed:   int64(seed),
		Reopen: reopen,
	}
}

// handlerSpans is the middleware around Server.Handler(). While a
// recorder is installed it wraps each request in a span named after the
// endpoint and counts the body bytes written; otherwise it only forwards.
type handlerSpans struct {
	inner http.Handler
	rec   atomic.Pointer[recorder]
	n     atomic.Uint32
	repl  atomic.Int64 // replication-feed requests served, counted always
	mu    sync.Mutex
	bytes map[string]int64 // endpoint → body bytes, while recording
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/repl/") {
		h.repl.Add(1)
	}
	rec := h.rec.Load()
	if rec == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	ep := endpointOf(r.URL.Path)
	cw := &countingWriter{ResponseWriter: w}
	id := rec.begin(rec.op("rdnsserve.ServeHTTP."+ep), h.n.Add(1))
	h.inner.ServeHTTP(cw, r)
	rec.end(id)
	h.mu.Lock()
	if h.bytes == nil {
		h.bytes = make(map[string]int64)
	}
	h.bytes[ep] += cw.n
	h.mu.Unlock()
}

// record installs (or, with nil, removes) the recorder.
func (h *handlerSpans) record(rec *recorder) { h.rec.Store(rec) }

// endpointOf names a request path by its endpoint: "/v1/at" → "at",
// "/v1/repl/tail/main" → "repl".
func endpointOf(path string) string {
	p := strings.TrimPrefix(path, "/v1/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return p
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return c.ResponseWriter.Write(b)
}

// nullWriter is the harness's own minimal ResponseWriter for in-process
// handler calls: it reuses one header map and discards the body, so the
// allocations counted are the handler's, not httptest's.
type nullWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *nullWriter) Header() http.Header  { return w.h }
func (w *nullWriter) WriteHeader(code int) { w.status = code }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}
func (w *nullWriter) reset() {
	clear(w.h)
	w.status = 0
}

// newClient builds one rdnsclient on its own keep-alive connection, with
// a hook that counts 429/503 retries.
func newClient(url string, retries *atomic.Int64, opts ...rdnsclient.Option) *rdnsclient.Client {
	hc := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute},
	}
	opts = append([]rdnsclient.Option{
		rdnsclient.WithHTTPClient(hc),
		rdnsclient.WithRequestHook(func(ri rdnsclient.RequestInfo) {
			if ri.Attempts > 1 {
				retries.Add(int64(ri.Attempts - 1))
			}
		}),
	}, opts...)
	return rdnsclient.New(url, opts...)
}

// query is one /v1 request of the generated workload, able to run itself
// through a client and, for the correctness gate, directly on a store.
// Both return a digest of the answer.
type query struct {
	kind     string // at, range, churn, name, days, stats
	ip       dnswire.IPv4
	ipStr    string
	prefix   dnswire.Prefix
	pfxStr   string
	from, to time.Time // at uses to
	token    string
}

var queryKinds = []string{"at", "range", "churn", "name", "days", "stats"}

func (q *query) do(ctx context.Context, c *rdnsclient.Client) (uint64, error) {
	h := fnv.New64a()
	switch q.kind {
	case "at":
		resp, err := c.At(ctx, q.ipStr, q.to)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "%v %s", resp.Found, resp.Name)
	case "range":
		resp, err := c.RangePage(ctx, rdnsclient.RangeQuery{Prefix: q.pfxStr, From: q.from, To: q.to}, "")
		if err != nil {
			return 0, err
		}
		for _, row := range resp.Rows {
			fmt.Fprintf(h, "%d %s %s\n", row.Date.Unix(), row.IP, row.PTR)
		}
	case "churn":
		resp, err := c.Churn(ctx, q.pfxStr, q.from, q.to)
		if err != nil {
			return 0, err
		}
		for _, d := range resp.Days {
			fmt.Fprintf(h, "%d %d %d %d\n", d.Date.Unix(), d.Added, d.Removed, d.Changed)
		}
	case "name":
		resp, err := c.NamePage(ctx, rdnsclient.NameQuery{Token: q.token}, "")
		if err != nil {
			return 0, err
		}
		for _, p := range resp.Postings {
			fmt.Fprintf(h, "%s %d %d\n", p.Prefix, p.First.Unix(), p.Last.Unix())
		}
	case "days":
		resp, err := c.Days(ctx)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "%d", resp.Count)
	case "stats":
		if _, err := c.Stats(ctx); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

const pageLimit = 1000 // rdnsserve's default page size

// direct answers the query from the store itself, digesting the answer
// the way do digests the daemon's. rec, when set, wraps the store call in
// a span.
func (q *query) direct(st *histstore.Store, rec *recorder, req uint32) (uint64, error) {
	ctx := context.Background()
	h := fnv.New64a()
	switch q.kind {
	case "at":
		id := rec.begin(rec.op("histstore.At"), req)
		name, found, err := st.At(q.ip, q.to)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		s := ""
		if found {
			s = name.String()
		}
		fmt.Fprintf(h, "%v %s", found, s)
	case "range":
		to, ok := st.Resolve(q.to)
		if !ok {
			return h.Sum64(), nil
		}
		id := rec.begin(rec.op("histstore.RangePage"), req)
		rows, _, _, err := st.RangePage(ctx, q.prefix, q.from, to, histstore.RangeCursor{}, pageLimit)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		for _, row := range rows {
			fmt.Fprintf(h, "%d %s %s\n", row.Date.Unix(), row.IP, row.PTR)
		}
	case "churn":
		id := rec.begin(rec.op("histstore.ChurnContext"), req)
		days, err := st.ChurnContext(ctx, q.prefix, q.from, q.to)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		for _, d := range days {
			fmt.Fprintf(h, "%d %d %d %d\n", d.Date.Unix(), d.Added, d.Removed, d.Changed)
		}
	case "name":
		id := rec.begin(rec.op("histstore.FindName"), req)
		postings := st.FindName(q.token)
		rec.end(id)
		if len(postings) > pageLimit {
			postings = postings[:pageLimit]
		}
		for _, p := range postings {
			fmt.Fprintf(h, "%s %d %d\n", p.Prefix, p.First.Unix(), p.Last.Unix())
		}
	case "days":
		fmt.Fprintf(h, "%d", st.Len())
	}
	return h.Sum64(), nil
}

// url renders the request for an in-process handler call.
func (q *query) url() string {
	ts := func(t time.Time) string { return t.UTC().Format(time.RFC3339) }
	switch q.kind {
	case "at":
		return "/v1/at?ip=" + q.ipStr + "&t=" + ts(q.to)
	case "range", "churn":
		return "/v1/" + q.kind + "?prefix=" + q.pfxStr + "&from=" + ts(q.from) + "&to=" + ts(q.to)
	case "name":
		return "/v1/name?token=" + q.token
	}
	return "/v1/" + q.kind
}

// mix is a request mix in percent, by kind.
type mix map[string]int

// corpus is what queries are drawn from: the store's blocks and days,
// addresses known to hold a record, and given-name tokens the store's
// name index knows.
type corpus struct {
	blocks []dnswire.Prefix
	days   int
	ips    []dnswire.IPv4
	tokens []string
}

func newCorpus(st *histstore.Store, live []dnswire.IPv4) corpus {
	c := corpus{blocks: st.Blocks(), days: st.Len(), ips: live}
	for _, tok := range append(append([]string(nil), names.Top50...), names.Extra...) {
		if len(st.FindName(tok)) > 0 {
			c.tokens = append(c.tokens, tok)
		}
	}
	if len(c.tokens) == 0 {
		c.tokens = []string{"brian"}
	}
	return c
}

// draw generates n queries of the mix, uniform over blocks × days.
func (c corpus) draw(rng *rand.Rand, m mix, n int) []query {
	var wheel []string
	for _, k := range queryKinds {
		for i := 0; i < m[k]; i++ {
			wheel = append(wheel, k)
		}
	}
	span := func(days int) (time.Time, time.Time) {
		if days > c.days {
			days = c.days
		}
		first := rng.Intn(c.days - days + 1)
		return dayAt(first), dayAt(first + days - 1)
	}
	out := make([]query, n)
	for i := range out {
		q := query{kind: wheel[rng.Intn(len(wheel))]}
		switch q.kind {
		case "at":
			q.ip = c.ips[rng.Intn(len(c.ips))]
			q.ipStr = q.ip.String()
			q.to = dayAt(rng.Intn(c.days))
		case "range":
			q.prefix = c.blocks[rng.Intn(len(c.blocks))]
			q.from, q.to = span(7)
		case "churn":
			q.prefix = c.blocks[rng.Intn(len(c.blocks))]
			q.from, q.to = span(30)
		case "name":
			q.token = c.tokens[rng.Intn(len(c.tokens))]
		}
		q.pfxStr = q.prefix.String()
		out[i] = q
	}
	return out
}

// loopTally is what one request loop produced.
type loopTally struct {
	latUS    []float64            // every request, microseconds
	byKind   map[string][]float64 // the same, split by endpoint
	byDaemon [][]float64          // the same, split by daemon (fleet-live)
	lateUS   []float64            // open loop: how late each request was sent
	good     int                  // open loop: requests answered without error within goodputLimit
	errs     []error
	samples  []gateSample
	wall     time.Duration
}

// gateSample is one response kept for the correctness gate.
type gateSample struct {
	q      *query
	digest uint64
}

// merge folds one closed-loop client's tally into t.
func (t *loopTally) merge(o *loopTally) {
	t.latUS = append(t.latUS, o.latUS...)
	t.errs = append(t.errs, o.errs...)
	t.samples = append(t.samples, o.samples...)
	for k, v := range o.byKind {
		t.byKind[k] = append(t.byKind[k], v...)
	}
}

const gateEvery = 64 // one response in this many is compared with the store's own answer

// closedLoop drives the pool through the clients, each sending its next
// request when the previous one completes, for dur — or, with once, until
// the pool has been walked through one time (warm-up). With a recorder it
// is called with a single client, so spans nest.
func closedLoop(clients []*rdnsclient.Client, pool []query, dur time.Duration, rec *recorder, once bool) *loopTally {
	ctx := context.Background()
	tallies := make([]*loopTally, len(clients))
	ops := clientOps(rec)
	var wg sync.WaitGroup
	begin := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *rdnsclient.Client) {
			defer wg.Done()
			t := &loopTally{byKind: make(map[string][]float64)}
			tallies[ci] = t
			for i, n := ci, 0; (once && i < len(pool)) || (!once && time.Since(begin) < dur); i, n = i+len(clients), n+1 {
				q := &pool[i%len(pool)]
				t0 := time.Now()
				id := rec.begin(ops[q.kind], uint32(i))
				digest, err := q.do(ctx, c)
				rec.end(id)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				t.latUS = append(t.latUS, us)
				t.byKind[q.kind] = append(t.byKind[q.kind], us)
				if err != nil {
					t.errs = append(t.errs, err)
				} else if n%gateEvery == 0 {
					t.samples = append(t.samples, gateSample{q, digest})
				}
			}
		}(ci, c)
	}
	wg.Wait()
	out := &loopTally{wall: time.Since(begin), byKind: make(map[string][]float64)}
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// clientOps interns one span name per client call; nil without a recorder.
func clientOps(rec *recorder) map[string]uint16 {
	if rec == nil {
		return nil
	}
	ops := make(map[string]uint16, len(queryKinds))
	for _, k := range queryKinds {
		ops[k] = rec.op("rdnsclient." + k)
	}
	return ops
}

// gate compares the sampled responses with the store's own answers and
// books errors and mismatches on the result.
func (t *loopTally) gate(r *result, st *histstore.Store, what string) {
	r.Attempted += int64(len(t.latUS))
	r.Failed += int64(len(t.errs))
	if len(t.errs) > 0 {
		r.problemf("%s: %d of %d requests failed, first: %v", what, len(t.errs), len(t.latUS), t.errs[0])
	}
	bad := 0
	for _, s := range t.samples {
		if s.q.kind == "stats" || s.q.kind == "days" {
			continue // depend on when they were asked, not only on the store
		}
		want, err := s.q.direct(st, nil, 0)
		if err != nil || want != s.digest {
			bad++
		}
	}
	if bad > 0 {
		r.Failed += int64(bad)
		r.problemf("%s: %d of %d sampled responses differ from the store's own answer", what, bad, len(t.samples))
	}
}

// handlerLoop calls h in-process for every request in reqs, n times
// over, and returns nanoseconds, allocations and allocated bytes per call.
func handlerLoop(h http.Handler, reqs []*http.Request, rounds int) (ns, allocs, bytes float64, err error) {
	w := &nullWriter{h: make(http.Header)}
	run := func() error {
		for _, req := range reqs {
			w.reset()
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				return fmt.Errorf("%s: status %d", req.URL, w.status)
			}
		}
		return nil
	}
	if err := run(); err != nil { // warm-up, and the status check
		return 0, 0, 0, err
	}
	rt := markRuntime()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := run(); err != nil {
			return 0, 0, 0, err
		}
	}
	d := time.Since(t0)
	mallocs, b := rt.since()
	n := float64(rounds * len(reqs))
	return float64(d.Nanoseconds()) / n, float64(mallocs) / n, float64(b) / n, nil
}

// buildRequests pre-builds in-process requests for the pool's queries of
// one kind, optionally carrying a wire correlation ID as a traced
// rdnsclient would send it.
func buildRequests(pool []query, kind string, max int, corrSeed int64) ([]*http.Request, error) {
	var out []*http.Request
	for i := range pool {
		if pool[i].kind != kind {
			continue
		}
		req, err := http.NewRequest(http.MethodGet, pool[i].url(), nil)
		if err != nil {
			return nil, err
		}
		req.RemoteAddr = "127.0.0.1:40000"
		if corrSeed != 0 {
			req.Header.Set(rdnsclient.CorrHeader, fmt.Sprintf("%016x", telemetry.CorrID(corrSeed, req.URL.Path, len(out)+1)))
		}
		if out = append(out, req); len(out) == max {
			break
		}
	}
	if len(out) == 0 {
		return nil, errors.New("no " + kind + " queries in the pool")
	}
	return out, nil
}

// queryLogMeans reads the mean parse and store phase times out of a
// daemon's query log.
func queryLogMeans(ql *rdnsserve.QueryLog) (parseNS, storeNS float64, n int) {
	entries := ql.Snapshot()
	for _, e := range entries {
		parseNS += float64(e.ParseNS)
		storeNS += float64(e.StoreNS)
	}
	n = len(entries)
	return ratio(parseNS, float64(n)), ratio(storeNS, float64(n)), n
}

// rejectedRatio is the share of requests the front door turned away.
func rejectedRatio(srv *rdnsserve.Server) (float64, int) {
	a := srv.StatsSnapshot().Admission
	rejected := a.RateLimited + a.Denied + a.Shed
	return ratio(float64(rejected), float64(rejected+a.Admitted)), int(rejected + a.Admitted)
}
