package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/replica"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// fleetFixture is a primary rdnsd whose store a campaign keeps appending
// to, a snapshot-shipped replica rdnsd following it, and clients on both
// — fully observed (query log on, X-Rdns-Corr on every request), as the
// fleet of make monitortest is.
type fleetFixture struct {
	writer  *histstore.Store // the primary's store: appended to and served
	primary *daemon
	replica *daemon
	syncer  *replica.Syncer
	qlogs   []*rdnsserve.QueryLog
	clients []*rdnsclient.Client // clients[i] talks to daemon i%2 (0 primary, 1 replica)
	retries atomic.Int64
	pool    []query
	pending []scanengine.RecordSet // days still to append, oldest first
	nextDay int
	synced  int64 // primary store bytes at the last sync
	openMS  float64
}

func (fx *fleetFixture) close() {
	fx.replica.close()
	fx.primary.close() // closes the writer handle
}

// observedConfig is rdnsdConfig plus the query log.
func observedConfig(seed uint64, reg *telemetry.Registry, reopen func() (*histstore.Store, error)) rdnsserve.Config {
	cfg := rdnsdConfig(seed, reg, reopen)
	cfg.QueryLog = rdnsserve.NewQueryLog(rdnsserve.QueryLogConfig{Size: 4096, SlowThreshold: 250 * time.Millisecond})
	return cfg
}

const fleetPool = 8192

// goodputLimit is the latency, counted from the due time, within which a
// request of the open loop must be answered to count as goodput. On the
// two-core reference sandbox 85-99 % of the requests meet it, the rest
// having met a Reload, a compaction, a GC cycle or a pause of the host, so
// it sits where a longer stall takes requests out and a shorter one puts
// them back.
const goodputLimit = 20 * time.Millisecond

func buildFleet(e *env) (*fleetFixture, error) {
	u, err := e.universe()
	if err != nil {
		return nil, err
	}
	fx := &fleetFixture{nextDay: e.sz.FleetPreload}
	pdir, rdir := e.scratch("fleet-primary"), e.scratch("fleet-replica")
	preg := telemetry.NewRegistry()
	fx.writer, err = histstore.Open(pdir,
		histstore.WithCache(4096), histstore.WithTelemetry(preg), histstore.WithHotSegments(histstore.DefaultHotSegments))
	if err != nil {
		return nil, err
	}
	if res := scan.Run(e.dynamicCampaign(u, fx.writer, 0, e.sz.FleetPreload)); res.StoreErr != nil {
		fx.writer.Close()
		return nil, res.StoreErr
	}
	// The days the run will append, evaluated ahead of time: the sweep that
	// produces them is campaign-ingest's subject, not this workload's.
	days := int(e.seconds/e.sz.FleetAppendGap) + 6
	for d := 0; d < days; d++ {
		recs, err := e.snapshotDay(u, e.sz.FleetPreload+d)
		if err != nil {
			fx.writer.Close()
			return nil, err
		}
		fx.pending = append(fx.pending, recs)
	}

	live, err := liveAddresses(fx.writer)
	if err != nil {
		fx.writer.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	fx.pool = newCorpus(fx.writer, live).draw(rng, mix{"at": 60, "range": 15, "churn": 15, "name": 5, "days": 3, "stats": 2}, fleetPool)

	pcfg := observedConfig(e.seed, preg, nil)
	if fx.primary, err = startDaemon(fx.writer, pcfg); err != nil {
		return nil, err
	}

	rtracer := telemetry.NewTracer(int64(e.seed)+1, 4096)
	fx.syncer, err = replica.New(replica.Config{Source: fx.primary.url, Dir: rdir, Tracer: rtracer, Seed: int64(e.seed) + 1})
	if err == nil {
		_, err = fx.syncer.Sync(context.Background())
	}
	if err != nil {
		fx.primary.close()
		return nil, fmt.Errorf("replica bootstrap: %w", err)
	}
	rreg := telemetry.NewRegistry()
	t0 := time.Now()
	rst, err := openReader(rdir, rreg)
	if err != nil {
		fx.primary.close()
		return nil, err
	}
	fx.openMS = float64(time.Since(t0).Microseconds()) / 1e3
	rcfg := observedConfig(e.seed+1, rreg, func() (*histstore.Store, error) { return openReader(rdir, rreg) })
	rcfg.Tracer = rtracer
	if fx.replica, err = startDaemon(rst, rcfg); err != nil {
		fx.primary.close()
		return nil, err
	}
	fx.replica.srv.SetReplicaStatus(fx.syncer.Status)
	fx.qlogs = []*rdnsserve.QueryLog{pcfg.QueryLog, rcfg.QueryLog}
	fx.synced = fx.writer.Stats().Bytes

	ctracer := telemetry.NewTracer(int64(e.seed)+2, 4096)
	for i := 0; i < max(2, e.nproc); i++ {
		url := fx.primary.url
		if i%2 == 1 {
			url = fx.replica.url
		}
		fx.clients = append(fx.clients, newClient(url, &fx.retries, rdnsclient.WithTrace(int64(e.seed)+2, ctracer)))
	}
	// Warm-up: both connections up, both daemons' caches touched.
	for i := 0; i < 256; i++ {
		if _, err := fx.pool[i%len(fx.pool)].do(context.Background(), fx.clients[i%len(fx.clients)]); err != nil {
			fx.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return fx, nil
}

// maintTally is what the write side of a fleet phase did.
type maintTally struct {
	appendUS, compactMS, syncMS, reloadMS, catchupMS []float64
	rewritten                                        []float64
	feedBytes                                        int64
	behindMax                                        int64
	errs                                             []error
}

// appendDay is one maintenance step: append the next day to the primary,
// compact every CompactEvery days, then bring the replica up to it — Sync,
// Reload, and a Days call that must show the new snapshot. Catch-up is the
// time from the append landing to the replica answering for it.
func (fx *fleetFixture) appendDay(e *env, rec *recorder, m *maintTally) {
	if len(fx.pending) == 0 {
		return
	}
	ctx := context.Background()
	recs := fx.pending[0]
	fx.pending = fx.pending[1:]
	req := uint32(fx.nextDay)
	fail := func(what string, err error) { m.errs = append(m.errs, fmt.Errorf("day %d %s: %w", req, what, err)) }

	t0 := time.Now()
	id := rec.begin(rec.op("histstore.Append"), req)
	err := fx.writer.Append(dayAt(fx.nextDay), recs)
	rec.end(id)
	m.appendUS = append(m.appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
	if err != nil {
		fail("append", err)
		return
	}
	fx.nextDay++
	if fx.writer.Len()%e.sz.CompactEvery == 0 {
		t0 = time.Now()
		id = rec.begin(rec.op("histstore.CompactWriter"), req)
		res, err := fx.writer.CompactWriter(ctx, fx.writer.WriterID(), histstore.CompactOptions{MinSeal: e.sz.CompactEvery})
		rec.end(id)
		m.compactMS = append(m.compactMS, float64(time.Since(t0).Microseconds())/1e3)
		m.rewritten = append(m.rewritten, float64(res.TailBytes))
		if err != nil {
			fail("compact", err)
			return
		}
	}

	landed := time.Now()
	if behind := fx.writer.Stats().Bytes - fx.synced; behind > m.behindMax {
		m.behindMax = behind
	}
	fetched := fx.syncer.Status().BytesFetched
	id = rec.begin(rec.op("replica.Sync"), req)
	_, err = fx.syncer.Sync(ctx)
	rec.end(id)
	m.syncMS = append(m.syncMS, float64(time.Since(landed).Microseconds())/1e3)
	if err != nil {
		fail("sync", err)
		return
	}
	m.feedBytes += fx.syncer.Status().BytesFetched - fetched
	fx.synced = fx.writer.Stats().Bytes
	t0 = time.Now()
	id = rec.begin(rec.op("rdnsserve.Reload"), req)
	_, err = fx.replica.srv.Reload()
	rec.end(id)
	m.reloadMS = append(m.reloadMS, float64(time.Since(t0).Microseconds())/1e3)
	if err != nil {
		fail("reload", err)
		return
	}
	days, err := fx.clients[1].Days(ctx)
	if err != nil || days.Count != fx.writer.Len() {
		fail("replica answer", fmt.Errorf("replica serves %d days, primary holds %d: %v", days.Count, fx.writer.Len(), err))
		return
	}
	m.catchupMS = append(m.catchupMS, float64(time.Since(landed).Microseconds())/1e3)
}

// waitUntil returns at due rather than a millisecond after it. Go timers
// on Linux fire up to 1 ms late in an otherwise idle process (the
// netpoller waits in whole milliseconds), which at 400 req/s would be the
// generator's lateness, not the daemons' latency; and polling the clock
// with runtime.Gosched starves the netpoller the daemons' connections
// depend on. So the pacer sleeps in the kernel (nanosleep, ~0.1 ms late
// here) to shortly before due and spins only the remainder.
func waitUntil(due time.Time) {
	const spin = 150 * time.Microsecond
	if d := time.Until(due) - spin; d > 0 {
		runtime.Gosched() // let whatever this goroutine just woke run before the thread sleeps
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
	}
}

// openLoopTimes is what an open loop measured, indexed by request number.
type openLoopTimes struct {
	latUS  []float64 // completion minus due time
	lateUS []float64 // hand-over to the connection minus due time: the generator's lateness
	wall   time.Duration
}

// openLoop issues request k at begin + k×interval whatever became of the
// requests before it, and times each from when it was due, so the wait a
// stall imposes on later requests is counted. With conns > 0 a pacer hands
// request k to connection k%conns, each connection a goroutine with a
// queue long enough that a stalled daemon never blocks the pacer. With
// conns == 0 everything runs on the calling goroutine (so a traced run's
// spans nest) and before, if set, runs ahead of each wait.
func openLoop(begin time.Time, interval time.Duration, total, conns int, before func(due time.Time), do func(conn, k int)) openLoopTimes {
	t := openLoopTimes{latUS: make([]float64, total), lateUS: make([]float64, total)}
	since := func(due time.Time) float64 { return float64(time.Since(due).Nanoseconds()) / 1e3 }
	if conns == 0 {
		for k := 0; k < total; k++ {
			due := begin.Add(time.Duration(k) * interval)
			if before != nil {
				before(due)
			}
			waitUntil(due)
			t.lateUS[k] = since(due)
			do(0, k)
			t.latUS[k] = since(due)
		}
		t.wall = time.Since(begin)
		return t
	}
	type job struct {
		k   int
		due time.Time
	}
	var wg sync.WaitGroup
	queues := make([]chan job, conns)
	for c := range queues {
		queues[c] = make(chan job, total/conns+1) // the whole phase: the open loop's backlog
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range queues[c] {
				do(c, j.k)
				t.latUS[j.k] = since(j.due)
			}
		}(c)
	}
	for k := 0; k < total; k++ {
		due := begin.Add(time.Duration(k) * interval)
		waitUntil(due)
		t.lateUS[k] = since(due)
		queues[k%conns] <- job{k, due}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	t.wall = time.Since(begin)
	return t
}

// fleetPhase runs the open loop for dur at FleetRate requests per second
// while the write side appends a day every FleetAppendGap — on its own
// goroutine, or, with inline, on the request goroutine between requests.
func (fx *fleetFixture) fleetPhase(e *env, dur time.Duration, rec *recorder, inline bool) (*loopTally, *maintTally) {
	ctx := context.Background()
	ops := clientOps(rec)
	m := &maintTally{}
	interval := time.Second / time.Duration(e.sz.FleetRate)
	total := int(dur / interval)
	errs := make([]error, total)
	do := func(_, k int) {
		q := &fx.pool[k%len(fx.pool)]
		id := rec.begin(ops[q.kind], uint32(k))
		_, errs[k] = q.do(ctx, fx.clients[k%len(fx.clients)])
		rec.end(id)
	}
	begin := time.Now()
	var times openLoopTimes
	if inline {
		nextAppend := begin.Add(e.sz.FleetAppendGap / 2)
		times = openLoop(begin, interval, total, 0, func(due time.Time) {
			if !due.Before(nextAppend) {
				fx.appendDay(e, rec, m)
				nextAppend = nextAppend.Add(e.sz.FleetAppendGap)
			}
		}, do)
	} else {
		var maint sync.WaitGroup
		maint.Add(1)
		go func() {
			defer maint.Done()
			for due := begin.Add(e.sz.FleetAppendGap / 2); due.Sub(begin) < dur; due = due.Add(e.sz.FleetAppendGap) {
				time.Sleep(time.Until(due))
				fx.appendDay(e, nil, m)
			}
		}()
		times = openLoop(begin, interval, total, len(fx.clients), nil, do)
		maint.Wait() // the last day's catch-up may outlast the request schedule
	}
	t := &loopTally{latUS: times.latUS, lateUS: times.lateUS, wall: times.wall,
		byKind: make(map[string][]float64), byDaemon: make([][]float64, 2)}
	for k, us := range times.latUS {
		kind, daemon := fx.pool[k%len(fx.pool)].kind, k%len(fx.clients)%2
		t.byKind[kind] = append(t.byKind[kind], us)
		t.byDaemon[daemon] = append(t.byDaemon[daemon], us)
		if errs[k] != nil {
			t.errs = append(t.errs, errs[k])
		} else if us <= goodputLimit.Seconds()*1e6 {
			t.good++
		}
	}
	return t, m
}

// book adds a phase's requests and write-side errors to the result.
func bookFleet(r *result, what string, t *loopTally, m *maintTally) {
	r.Attempted += int64(len(t.latUS) + len(m.appendUS))
	r.Failed += int64(len(t.errs) + len(m.errs))
	if len(t.errs) > 0 {
		r.problemf("%s: %d of %d requests failed, first: %v", what, len(t.errs), len(t.latUS), t.errs[0])
	}
	for _, err := range m.errs {
		r.problemf("%s: %v", what, err)
	}
}

// runFleet measures reads beside writes: where compaction stalls, reload
// swaps, replica cost and observability cost reach a user, and where a
// read win that slows appends (or the reverse) shows.
func runFleet(e *env, r *result) error {
	// One processor beyond nproc, for the pacer: it sleeps in the kernel
	// between requests, and a goroutine blocked in a system call keeps its
	// processor until the runtime takes it back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.nproc + 1))
	t0 := time.Now()
	fx, err := buildFleet(e)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds(), 1)
	defer fx.close()
	prodFor, singleFor, tracedFor := e.phases()

	feed0 := fx.primary.mw.repl.Load()
	rt := markRuntime()
	t, m := fx.fleetPhase(e, prodFor, nil, false)
	rt.report(r)
	bookFleet(r, "open loop", t, m)
	// What this workload bounds is what a stall costs: goodput — requests
	// answered without error within goodputLimit of their due time, per
	// second. The delivered rate is the schedule whatever the daemons do,
	// and the median request flips between "met a Reload" and "did not"
	// from run to run on two cores, so both are reported unbounded, as is
	// the write side's operation, an appended day reaching the replica.
	n := len(t.latUS)
	catchupUS := make([]float64, len(m.catchupMS))
	for i, ms := range m.catchupMS {
		catchupUS[i] = ms * 1e3
	}
	reportOps(r, "bench.goodput_per_s", float64(t.good)/t.wall.Seconds(), n, catchupUS)
	r.set("bench.serve_req_per_s", float64(n)/t.wall.Seconds(), n)
	lat := summarize(t.latUS)
	r.set("bench.serve_p50_us", lat.P50, n)
	r.set("bench.serve_p99_us", percentile(t.latUS, 99), n) // summarize sorted both
	late := summarize(t.lateUS)
	r.set("bench.late_p50_us", late.P50, late.N)
	r.set("bench.late_p99_us", percentile(t.lateUS, 99), late.N)
	r.set("bench.replica_catchup_ms", median(m.catchupMS), len(m.catchupMS))
	r.notef("open loop, %d req/s over %d keep-alive connections (half to each daemon), latency from the due time, goodput limit %v; %d days appended, one per %v; op is one appended day reaching the replica",
		e.sz.FleetRate, len(fx.clients), goodputLimit, len(m.appendUS), e.sz.FleetAppendGap)

	// Gate: after the last sync the two daemons answer a fixed query set
	// with identical bytes.
	if diff, err := fx.compareDaemons(64); err != nil {
		return err
	} else if diff > 0 {
		r.Failed += int64(diff)
		r.problemf("%d of 64 fixed queries answered differently by primary and replica", diff)
	}

	if e.trace {
		r.set("histstore.append_us_per_snapshot", mean(m.appendUS), len(m.appendUS))
		r.set("histstore.compact_ms_per_run", mean(m.compactMS), len(m.compactMS))
		r.set("histstore.compact_rewritten_bytes", mean(m.rewritten), len(m.rewritten))
		r.set("histstore.open_ms", fx.openMS, 1)
		r.set("replica.sync_ms_per_day", mean(m.syncMS), len(m.syncMS))
		r.set("rdnsserve.reload_ms", mean(m.reloadMS), len(m.reloadMS))
		r.set("replica.feed_bytes_per_day", ratio(float64(m.feedBytes), float64(len(m.syncMS))), len(m.syncMS))
		r.set("replica.fetches_per_sync", ratio(float64(fx.primary.mw.repl.Load()-feed0), float64(len(m.syncMS))), len(m.syncMS))
		r.set("replica.bytes_behind_max", float64(m.behindMax), len(m.syncMS))
		r.set("rdnsclient.p50_us.primary", median(t.byDaemon[0]), len(t.byDaemon[0]))
		r.set("rdnsclient.p50_us.replica", median(t.byDaemon[1]), len(t.byDaemon[1]))
		r.set("rdnsclient.retries_per_req", ratio(float64(fx.retries.Load()), float64(n)), n)
		var noop []float64
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if _, err := fx.syncer.Sync(context.Background()); err != nil {
				return fmt.Errorf("no-op sync: %w", err)
			}
			noop = append(noop, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		r.set("replica.noop_sync_us", median(noop), len(noop))
		if err := traceFleet(e, r, fx, singleFor, tracedFor); err != nil {
			return err
		}
	}
	finish(r)
	return nil
}

func traceFleet(e *env, r *result, fx *fleetFixture, singleFor, tracedFor time.Duration) error {
	off, offM := fx.fleetPhase(e, singleFor, nil, true)
	bookFleet(r, "single goroutine", off, offM)

	rec := newRecorder()
	root := rec.begin(rec.op("bench.workload"), 0)
	fx.primary.mw.record(rec)
	fx.replica.mw.record(rec)
	on, onM := fx.fleetPhase(e, tracedFor, rec, true)
	fx.primary.mw.record(nil)
	fx.replica.mw.record(nil)
	bookFleet(r, "traced", on, onM)
	// An open loop's request rate is its schedule, so the cost of
	// recording shows in how long a request takes, not in how many run —
	// at the median, which the backlog behind an inline append leaves alone.
	traceReport(e, r, rec, root, 1/median(off.latUS), 1/median(on.latUS))

	for _, k := range []string{"at", "range", "churn", "name"} {
		t := findOp(r.Budget, "rdnsserve.ServeHTTP."+k)
		r.set("rdnsserve.handler_us."+k, ratio(float64(t.Total)/1e3, float64(t.Count)), t.Count)
	}
	var parse, store float64
	var entries int
	for _, ql := range fx.qlogs {
		p, s, n := queryLogMeans(ql)
		parse, store, entries = parse+p*float64(n), store+s*float64(n), entries+n
	}
	r.set("rdnsserve.querylog_parse_ns", ratio(parse, float64(entries)), entries)
	r.set("rdnsserve.querylog_store_ns", ratio(store, float64(entries)), entries)
	var rejected, total float64
	for _, d := range []*daemon{fx.primary, fx.replica} {
		rej, n := rejectedRatio(d.srv)
		rejected, total = rejected+rej*float64(n), total+float64(n)
	}
	r.set("rdnsserve.rejected_ratio", ratio(rejected, total), int(total))
	return nil
}

// compareDaemons fetches the first n store-determined queries of the pool
// from both daemons and counts the ones whose response bodies differ.
func (fx *fleetFixture) compareDaemons(n int) (int, error) {
	get := func(base, path string) ([]byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s%s: status %d", base, path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	defer http.DefaultClient.CloseIdleConnections()
	diff, seen := 0, 0
	for i := range fx.pool {
		if fx.pool[i].kind == "stats" {
			continue // reports the daemon, not the store
		}
		path := fx.pool[i].url()
		a, err := get(fx.primary.url, path)
		if err != nil {
			return 0, err
		}
		b, err := get(fx.replica.url, path)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(a, b) {
			diff++
		}
		if seen++; seen == n {
			break
		}
	}
	return diff, nil
}
