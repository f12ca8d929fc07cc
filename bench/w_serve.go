package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/telemetry"
)

// serveFixture is the serve-* set-up: a store written by a ServeDays-day
// campaign, an rdnsd over it on loopback TCP, one rdnsclient per core, a
// second read-only handle for the gate and the store replays, and the
// generated query pool — warmed.
type serveFixture struct {
	dir     string
	d       *daemon
	check   *histstore.Store
	clients []*rdnsclient.Client
	retries atomic.Int64
	pool    []query
	openMS  float64
}

func (fx *serveFixture) close() {
	fx.d.close()
	fx.check.Close()
}

// liveAddresses returns the addresses holding a record on the store's
// last day, in address order.
func liveAddresses(st *histstore.Store) ([]dnswire.IPv4, error) {
	recs, err := storeDay(st, dayAt(st.Len()-1))
	if err != nil {
		return nil, err
	}
	ips := make([]dnswire.IPv4, 0, len(recs))
	for ip := range recs {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Uint32() < ips[j].Uint32() })
	return ips, nil
}

const servePool = 16384 // generated queries a run cycles through

func buildServe(e *env, hot bool) (*serveFixture, error) {
	u, err := e.universe()
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{dir: e.scratch("serve")}
	if _, err := e.buildStore(u, fx.dir, e.sz.ServeDays); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	t0 := time.Now()
	st, err := openReader(fx.dir, reg)
	if err != nil {
		return nil, err
	}
	fx.openMS = float64(time.Since(t0).Microseconds()) / 1e3
	reopen := func() (*histstore.Store, error) { return openReader(fx.dir, reg) }
	if fx.d, err = startDaemon(st, rdnsdConfig(e.seed, reg, reopen)); err != nil {
		return nil, err
	}
	if fx.check, err = openReader(fx.dir, telemetry.NewRegistry()); err != nil {
		fx.d.close()
		return nil, err
	}
	for i := 0; i < e.nproc; i++ {
		fx.clients = append(fx.clients, newClient(fx.d.url, &fx.retries))
	}
	live, err := liveAddresses(fx.check)
	if err != nil {
		fx.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	c := newCorpus(fx.check, live)
	if hot {
		// The working set: HotIPs addresses on the last HotDays days — at
		// most HotIPs×HotDays block states, well inside the 4096-state cache.
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		if len(live) > e.sz.HotIPs {
			live = live[:e.sz.HotIPs]
		}
		fx.pool = make([]query, servePool)
		for i := range fx.pool {
			ip := live[rng.Intn(len(live))]
			day := c.days - 1 - rng.Intn(min(e.sz.HotDays, c.days))
			fx.pool[i] = query{kind: "at", ip: ip, ipStr: ip.String(), to: dayAt(day)}
		}
	} else {
		fx.pool = c.draw(rng, mix{"range": 40, "churn": 40, "name": 10, "at": 10}, servePool)
	}
	// Warm-up: connections established, the hot set in cache.
	warm := 256
	if hot {
		warm = 4 * e.sz.HotIPs * e.sz.HotDays
	}
	t := closedLoop(fx.clients, fx.pool[:min(warm, len(fx.pool))], time.Hour, nil, true)
	if len(t.errs) > 0 {
		fx.close()
		return nil, fmt.Errorf("warm-up: %w", t.errs[0])
	}
	return fx, nil
}

func runServeHot(e *env, r *result) error  { return runServe(e, r, true) }
func runServeCold(e *env, r *result) error { return runServe(e, r, false) }

// runServe measures the query daemon under a closed loop of one client
// per core. Hot: /v1/at on a working set the store answers from cache, so
// HTTP, admission, JSON and instrumentation own the request. Cold:
// range/churn/name/at spread over the whole history, far beyond the cache
// and the hot segment tier, so reconstruction, tiering and row encoding do.
func runServe(e *env, r *result, hot bool) error {
	t0 := time.Now()
	fx, err := buildServe(e, hot)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds(), 1)
	defer fx.close()
	prodFor, singleFor, tracedFor := e.phases()

	before := fx.d.srv.StatsSnapshot().Store
	rt := markRuntime()
	t := closedLoop(fx.clients, fx.pool, prodFor, nil, false)
	rt.report(r)
	after := fx.d.srv.StatsSnapshot().Store
	t.gate(r, fx.check, "closed loop")
	n := len(t.latUS)
	lat := reportOps(r, "bench.serve_req_per_s", float64(n)/t.wall.Seconds(), n, t.latUS)
	r.set("bench.serve_p50_us", lat.P50, n)
	r.set("bench.serve_p99_us", percentile(t.latUS, 99), n) // sorted by reportOps
	r.notef("closed loop, %d clients, one keep-alive connection each; 1 response in %d checked against the store (%d checked)", len(fx.clients), gateEvery, len(t.samples))

	if e.trace {
		hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
		r.set("histstore.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
		r.set("histstore.reconstructions_per_query", ratio(float64(after.Reconstructions-before.Reconstructions), float64(n)), n)
		r.set("histstore.tier_loads_per_query", ratio(float64(after.TierLoads-before.TierLoads), float64(n)), n)
		r.set("histstore.open_ms", fx.openMS, 1)
		r.set("rdnsclient.retries_per_req", ratio(float64(fx.retries.Load()), float64(n)), n)
		rej, admitted := rejectedRatio(fx.d.srv)
		r.set("rdnsserve.rejected_ratio", rej, admitted)
		if err := traceServe(e, r, fx, hot, singleFor, tracedFor); err != nil {
			return err
		}
	}
	finish(r)
	return nil
}

const storeReplayQueries = 2000 // queries the direct store replay runs

func traceServe(e *env, r *result, fx *serveFixture, hot bool, singleFor, tracedFor time.Duration) error {
	one := fx.clients[:1]
	off := closedLoop(one, fx.pool, singleFor, nil, false)
	off.gate(r, fx.check, "single client")

	rec := newRecorder()
	root := rec.begin(rec.op("bench.workload"), 0)
	fx.d.mw.record(rec)
	on := closedLoop(one, fx.pool, tracedFor, rec, false)
	fx.d.mw.record(nil)
	on.gate(r, fx.check, "traced client")

	// The direct store replay of the workload's keys, inside the trace:
	// what the handler's store call costs with nothing around it. Hot
	// replays on the warm gate handle; cold opens a fresh one so the
	// cache and the tier start empty as the daemon's did.
	replay := fx.check
	if !hot {
		var err error
		if replay, err = openReader(fx.dir, telemetry.NewRegistry()); err != nil {
			return err
		}
		defer replay.Close()
	}
	for i := 0; i < storeReplayQueries; i++ {
		if _, err := fx.pool[i%len(fx.pool)].direct(replay, rec, uint32(i)); err != nil {
			return fmt.Errorf("store replay: %w", err)
		}
	}
	traceReport(e, r, rec, root, float64(len(off.latUS))/off.wall.Seconds(), float64(len(on.latUS))/on.wall.Seconds())

	perCall := func(op string) (us float64, n int) {
		t := findOp(r.Budget, op)
		return ratio(float64(t.Total)/1e3, float64(t.Count)), t.Count
	}
	var clientNS, handlerNS int64
	for _, t := range r.Budget {
		switch t.layer() {
		case "rdnsclient":
			clientNS += t.Total
		case "rdnsserve":
			handlerNS += t.Total
		}
	}
	r.set("rdnsclient.overhead_us_per_req", ratio(float64(clientNS-handlerNS)/1e3, float64(len(on.latUS))), len(on.latUS))
	atUS, atN := perCall("rdnsserve.ServeHTTP.at")
	r.set("rdnsserve.handler_us.at", atUS, atN)
	storeAtUS, storeAtN := perCall("histstore.At")
	if hot {
		r.set("histstore.at_ns_cached", storeAtUS*1e3, storeAtN)
		r.set("rdnsserve.self_us.at", atUS-storeAtUS, atN)
		return hotHandlerCosts(e, r, fx)
	}
	for _, k := range []string{"range", "churn", "name"} {
		us, n := perCall("rdnsserve.ServeHTTP." + k)
		r.set("rdnsserve.handler_us."+k, us, n)
	}
	r.set("histstore.at_us_cold", storeAtUS, storeAtN)
	us, n := perCall("histstore.RangePage")
	r.set("histstore.range_us_per_query", us, n)
	us, n = perCall("histstore.ChurnContext")
	r.set("histstore.churn_us_per_query", us, n)
	us, n = perCall("histstore.FindName")
	r.set("histstore.findname_us_per_query", us, n)
	ranges := findOp(r.Budget, "rdnsserve.ServeHTTP.range").Count
	r.set("rdnsserve.response_bytes.range", ratio(float64(fx.d.mw.bytes["range"]), float64(ranges)), ranges)
	return nil
}

const handlerReplayRequests = 1000 // distinct in-process requests, replayed 10 times

// hotHandlerCosts measures the handler in-process, with the harness's own
// ResponseWriter: allocations per /v1/at, and what observing a request
// (query log on, the client's wire correlation ID on every request) adds
// to it.
func hotHandlerCosts(e *env, r *result, fx *serveFixture) error {
	plain, err := buildRequests(fx.pool, "at", handlerReplayRequests, 0)
	if err != nil {
		return err
	}
	ns, allocs, bytes, err := handlerLoop(fx.d.srv.Handler(), plain, 10)
	if err != nil {
		return err
	}
	r.set("rdnsserve.allocs_per_req.at", allocs, 10*len(plain))
	r.set("rdnsserve.bytes_per_req.at", bytes, 10*len(plain))

	st, err := openReader(fx.dir, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	cfg := rdnsdConfig(e.seed, telemetry.NewRegistry(), nil)
	cfg.QueryLog = rdnsserve.NewQueryLog(rdnsserve.QueryLogConfig{Size: 4096, SlowThreshold: 250 * time.Millisecond})
	observed := rdnsserve.New(st, cfg)
	defer observed.Close()
	corr, err := buildRequests(fx.pool, "at", handlerReplayRequests, int64(e.seed)+2)
	if err != nil {
		return err
	}
	obsNS, _, _, err := handlerLoop(observed.Handler(), corr, 10)
	if err != nil {
		return err
	}
	r.set("rdnsserve.observed_overhead_pct", 100*ratio(obsNS-ns, ns), 10*len(plain))
	parse, store, n := queryLogMeans(cfg.QueryLog)
	r.set("rdnsserve.querylog_parse_ns", parse, n)
	r.set("rdnsserve.querylog_store_ns", store, n)
	return nil
}
