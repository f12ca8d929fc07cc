package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// sweepFixture is the set-up both sweep workloads share: the dynamic
// networks' address space as dnsserver /24 zones holding one campaign
// day, the next day's records to flip to, and the targets split into
// chunks so that one Scan is a fraction of a second even over a socket.
type sweepFixture struct {
	srv    *dnsserver.Server
	zones  map[dnswire.Prefix]*dnsserver.Zone
	days   [2]scanengine.RecordSet
	cur    int                       // which day the zones hold
	chunks [][]dnswire.Prefix        // targets, partitioned
	addrs  []int                     // addresses per chunk
	expect [2][]scanengine.RecordSet // per day, per chunk: the records a sweep must return
	udp    net.PacketConn            // sweep-udp only
	served chan error                // dnsserver.Serve's return
	source func() scanengine.Source  // the production source
	warm   []dnswire.Prefix          // the smallest target, swept once in set-up
	stats0 dnsserver.ServerStats
}

func (fx *sweepFixture) close() {
	if fx.udp != nil {
		fx.udp.Close()
		<-fx.served
	}
}

// sweepDay0 is the campaign day the zones start on; an ordinary Tuesday.
const sweepDay0 = 8

func buildSweep(e *env, udp bool) (*sweepFixture, error) {
	u, err := e.universe()
	if err != nil {
		return nil, err
	}
	fx := &sweepFixture{srv: dnsserver.NewServer(), zones: make(map[dnswire.Prefix]*dnsserver.Zone)}
	for d := range fx.days {
		if fx.days[d], err = e.snapshotDay(u, sweepDay0+d); err != nil {
			return nil, err
		}
	}
	c := scan.Campaign{Universe: u, SkipFiller: true}
	targets := c.Targets()
	for _, p := range targets {
		for _, b := range p.Slash24s() {
			origin, err := dnswire.ReverseZoneFor24(b)
			if err != nil {
				return nil, err
			}
			z := dnsserver.NewZone(dnsserver.ZoneConfig{Origin: origin, PrimaryNS: "ns1.bench.example.", Mbox: "hostmaster.bench.example."})
			fx.zones[b] = z
			fx.srv.AddZone(z)
		}
	}
	for ip, name := range fx.days[0] {
		if err := fx.zones[ip.Slash24()].SetPTR(dnswire.ReverseName(ip), name); err != nil {
			return nil, err
		}
	}

	// Partition the targets into chunks of near-equal address count:
	// largest first into the emptiest bin.
	n := e.sz.SweepChunks
	if n > len(targets) {
		n = len(targets)
	}
	sorted := append([]dnswire.Prefix(nil), targets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].NumAddresses() > sorted[j].NumAddresses() })
	fx.chunks, fx.addrs = make([][]dnswire.Prefix, n), make([]int, n)
	for _, p := range sorted {
		least := 0
		for i := range fx.addrs {
			if fx.addrs[i] < fx.addrs[least] {
				least = i
			}
		}
		fx.chunks[least] = append(fx.chunks[least], p)
		fx.addrs[least] += p.NumAddresses()
	}
	fx.warm = sorted[len(sorted)-1:]
	for d := range fx.expect {
		fx.expect[d] = make([]scanengine.RecordSet, n)
		for i, chunk := range fx.chunks {
			set := make(scanengine.RecordSet)
			for ip, name := range fx.days[d] {
				for _, p := range chunk {
					if p.Contains(ip) {
						set[ip] = name
						break
					}
				}
			}
			fx.expect[d][i] = set
		}
	}

	if udp {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		fx.udp, fx.served = conn, make(chan error, 1)
		go func() { fx.served <- fx.srv.Serve(conn) }()
		// cmd/rdnsscan's client: 2s timeout, one retransmission.
		client := &dnsclient.UDPClient{Server: conn.LocalAddr().String(), Timeout: 2 * time.Second, Retries: 1}
		fx.source = func() scanengine.Source { return dnsclient.UDPSource{Client: client} }
	} else {
		fx.source = func() scanengine.Source { return &dnsclient.ServerSource{Server: fx.srv} }
	}
	// Warm-up: one small sweep, so the first timed Scan does not pay for
	// first use of the codec, the zone walk and (over UDP) the socket path.
	sc := scanengine.New(fx.source(), scanengine.WithWorkers(e.nproc))
	snap, err := sc.Scan(context.Background(), scanengine.Request{Targets: fx.warm})
	if err == nil && snap.Stats.Errors != 0 {
		err = fmt.Errorf("%d probe errors", snap.Stats.Errors)
	}
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	fx.stats0 = fx.srv.Stats()
	return fx, nil
}

// flip moves the zones to the other day, so the next round's diff
// against the previous sweep is not empty. Untimed.
func (fx *sweepFixture) flip() error {
	from, to := fx.days[fx.cur], fx.days[1-fx.cur]
	for ip := range from {
		if _, keep := to[ip]; !keep {
			fx.zones[ip.Slash24()].RemovePTR(dnswire.ReverseName(ip))
		}
	}
	for ip, name := range to {
		if from[ip] != name {
			if err := fx.zones[ip.Slash24()].SetPTR(dnswire.ReverseName(ip), name); err != nil {
				return err
			}
		}
	}
	fx.cur = 1 - fx.cur
	return nil
}

// sweepTally is what one phase of chunk sweeps produced.
type sweepTally struct {
	probes, errors, mismatched uint64
	changes                    []float64
	per1kUS                    []float64 // per Scan: wall per 1000 probes
	scanWall                   time.Duration
}

func (t sweepTally) rate() float64 { return ratio(float64(t.probes), t.scanWall.Seconds()) }

// sweepPhase sweeps chunk after chunk with sc for dur, flipping the zones
// after every full round, and checks each snapshot against the zone
// contents exactly.
func (fx *sweepFixture) sweepPhase(sc *scanengine.Scanner, rec *recorder, dur time.Duration) (sweepTally, error) {
	var t sweepTally
	opScan := rec.op("scanengine.Scan")
	ctx := context.Background()
	begin := time.Now()
	for i := 0; time.Since(begin) < dur; i++ {
		c := i % len(fx.chunks)
		if c == 0 && i > 0 {
			if err := fx.flip(); err != nil {
				return t, err
			}
		}
		want := fx.expect[fx.cur][c]
		t0 := time.Now()
		id := rec.begin(opScan, uint32(i))
		snap, err := sc.Scan(ctx, scanengine.Request{Targets: fx.chunks[c], Baseline: fx.expect[1-fx.cur][c]})
		rec.end(id)
		d := time.Since(t0)
		if err != nil {
			return t, err
		}
		t.scanWall += d
		t.probes += snap.Stats.Probes
		t.errors += snap.Stats.Errors
		t.changes = append(t.changes, float64(len(snap.Changes)))
		t.per1kUS = append(t.per1kUS, float64(d.Microseconds())*1000/float64(fx.addrs[c]))
		if extra := len(snap.Records) - len(want); extra > 0 {
			t.mismatched += uint64(extra) // records the zones do not hold
		}
		for ip, name := range want {
			if snap.Records[ip] != name {
				t.mismatched++
			}
		}
	}
	return t, nil
}

func runSweepWire(e *env, r *result) error { return runSweep(e, r, false) }
func runSweepUDP(e *env, r *result) error  { return runSweep(e, r, true) }

// runSweep measures per-address PTR sweeps through scanengine: against
// the in-process server (dnswire, dnsserver, dnsclient classify and engine
// merge dominate) or the same server behind a loopback UDP socket (socket
// dial, write and read per probe dominate).
func runSweep(e *env, r *result, udp bool) error {
	t0 := time.Now()
	fx, err := buildSweep(e, udp)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds(), 1)
	defer fx.close()
	prodFor, singleFor, tracedFor := e.phases()

	sc := scanengine.New(fx.source(), scanengine.WithWorkers(e.nproc))
	rt := markRuntime()
	t, err := fx.sweepPhase(sc, nil, prodFor)
	if err != nil {
		return err
	}
	mallocs, bytes := rt.since()
	rt.report(r)
	r.Attempted += int64(t.probes)
	r.Failed += int64(t.errors + t.mismatched)
	if t.errors != 0 {
		r.problemf("%d probe errors", t.errors)
	}
	if t.mismatched != 0 {
		r.problemf("%d records differ from the zone contents", t.mismatched)
	}
	reportOps(r, "bench.sweep_queries_per_s", t.rate(), int(t.probes), t.per1kUS)
	r.notef("op is 1000 probes: bench.op_p50_us is the median over %d Scan calls (%d chunks of ~%d addresses) of wall per 1000 probes", len(t.per1kUS), len(fx.chunks), fx.addrs[0])

	if e.trace {
		r.set("scanengine.scan_allocs_per_probe", ratio(float64(mallocs), float64(t.probes)), int(t.probes))
		r.set("scanengine.scan_bytes_per_probe", ratio(float64(bytes), float64(t.probes)), int(t.probes))
		r.set("scanengine.changes_per_sweep", mean(t.changes)*float64(len(fx.chunks)), len(t.changes))
		st := fx.srv.Stats()
		queries := st.Queries - fx.stats0.Queries
		r.set("dnsserver.absent_ratio", ratio(float64(st.NXDomain-fx.stats0.NXDomain), float64(queries)), int(queries))
		if err := traceSweep(e, r, fx, udp, t.rate(), singleFor, tracedFor); err != nil {
			return err
		}
	}
	finish(r)
	return nil
}

// spanSource wraps the probe source: one span per LookupPTR, and a tally
// of what the client had to do to get each answer.
type spanSource struct {
	inner    scanengine.Source
	rec      *recorder
	op       uint16
	probes   uint32
	retries  uint64
	timeouts uint64
}

func (s *spanSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) scanengine.Result {
	s.probes++ // one worker: no concurrent callers
	id := s.rec.begin(s.op, s.probes)
	res := s.inner.LookupPTR(ctx, ip)
	s.rec.end(id)
	if resp, ok := res.Meta.(dnsclient.Response); ok && resp.Attempts > 1 {
		s.retries += uint64(resp.Attempts - 1)
	}
	if errors.Is(res.Err, dnsclient.ErrTimeout) {
		s.timeouts++
	}
	return res
}

// spanHandler wraps the authoritative server at the message level: one
// span per HandleQuery, and (when capture > 0) copies of the first queries
// and responses for the codec replay.
type spanHandler struct {
	inner     *dnsserver.Server
	rec       *recorder
	op        uint16
	n         uint32
	capture   int
	queries   [][]byte
	responses [][]byte
}

func (h *spanHandler) HandleQuery(q []byte) []byte {
	h.n++
	id := h.rec.begin(h.op, h.n)
	resp := h.inner.HandleQuery(q)
	h.rec.end(id)
	if len(h.queries) < h.capture {
		h.queries = append(h.queries, append([]byte(nil), q...))
		h.responses = append(h.responses, append([]byte(nil), resp...))
	}
	return resp
}

const codecReplayMessages = 20000

func traceSweep(e *env, r *result, fx *sweepFixture, udp bool, prodRate float64, singleFor, tracedFor time.Duration) error {
	// phase runs the harness's single-worker sweep with the wrappers in
	// place; rec nil is the like-for-like baseline for trace overhead.
	phase := func(rec *recorder, dur time.Duration, capture int) (sweepTally, *spanSource, *spanHandler, error) {
		var h *spanHandler
		inner := fx.source()
		if !udp {
			h = &spanHandler{inner: fx.srv, rec: rec, op: rec.op("dnsserver.HandleQuery"), capture: capture}
			inner = &dnsclient.ServerSource{Server: h}
		}
		src := &spanSource{inner: inner, rec: rec, op: rec.op("dnsclient.LookupPTR")}
		t, err := fx.sweepPhase(scanengine.New(src, scanengine.WithWorkers(1)), rec, dur)
		return t, src, h, err
	}
	off, _, captured, err := phase(nil, singleFor, codecReplayMessages)
	if err != nil {
		return err
	}
	rec := newRecorder()
	root := rec.begin(rec.op("bench.workload"), 0)
	on, src, _, err := phase(rec, tracedFor, 0)
	if err != nil {
		return err
	}
	traceReport(e, r, rec, root, off.rate(), on.rate())
	if bad := off.errors + off.mismatched + on.errors + on.mismatched; bad != 0 {
		r.Failed += int64(bad)
		r.problemf("single-worker sweeps: %d errors or mismatches", bad)
	}

	sweep := findOp(r.Budget, "scanengine.Scan")
	lookup := findOp(r.Budget, "dnsclient.LookupPTR")
	r.set("scanengine.self_ns_per_probe", ratio(float64(sweep.Self), float64(on.probes)), int(on.probes))
	if udp {
		r.set("dnsclient.udp_lookup_us_per_probe", ratio(float64(lookup.Total)/1e3, float64(lookup.Count)), lookup.Count)
		r.set("dnsclient.retries_per_probe", ratio(float64(src.retries), float64(lookup.Count)), lookup.Count)
		r.set("dnsclient.timeouts", float64(src.timeouts), lookup.Count)
		return nil
	}
	handle := findOp(r.Budget, "dnsserver.HandleQuery")
	r.set("dnsclient.lookup_self_ns_per_probe", ratio(float64(lookup.Self), float64(lookup.Count)), lookup.Count)
	r.set("dnsserver.handle_ns_per_query", ratio(float64(handle.Total), float64(handle.Count)), handle.Count)

	// Correlation tracing on: the engine's shard spans, the source's attempt
	// spans and the server's spans, as cmd/rdnsscan -trace-out wires them.
	tr := telemetry.NewTracer(int64(e.seed), 4096)
	fx.srv.SetTracer(tr)
	corr := scanengine.New(&dnsclient.ServerSource{Server: fx.srv, Tracer: tr, Seed: int64(e.seed)},
		scanengine.WithWorkers(e.nproc), scanengine.WithTracer(tr))
	ct, err := fx.sweepPhase(corr, nil, singleFor)
	fx.srv.SetTracer(nil)
	if err != nil {
		return err
	}
	r.set("scanengine.correlation_overhead_pct", 100*ratio(prodRate-ct.rate(), prodRate), len(ct.per1kUS))

	replayCodec(r, fx.srv, captured.queries, captured.responses)
	return nil
}

// replayCodec runs the sweep's captured messages back through the codec
// and the server on their own: the client side of a round trip is
// NewQuery().Marshal() plus Unmarshal(response).
func replayCodec(r *result, srv *dnsserver.Server, queries, responses [][]byte) {
	n := len(queries)
	type question struct {
		id   uint16
		name dnswire.Name
	}
	qs := make([]question, 0, n)
	var respBytes int
	for i, q := range queries {
		msg, err := dnswire.Unmarshal(q)
		if err != nil || len(msg.Questions) != 1 {
			continue
		}
		qs = append(qs, question{msg.Header.ID, msg.Questions[0].Name})
		respBytes += len(responses[i])
	}
	rt := markRuntime()
	t0 := time.Now()
	for _, q := range qs {
		if _, err := dnswire.NewQuery(q.id, q.name, dnswire.TypePTR).Marshal(); err != nil {
			r.problemf("codec replay: marshal %s: %v", q.name, err)
			return
		}
	}
	marshal := time.Since(t0)
	t0 = time.Now()
	for _, resp := range responses {
		if _, err := dnswire.Unmarshal(resp); err != nil {
			r.problemf("codec replay: unmarshal: %v", err)
			return
		}
	}
	unmarshal := time.Since(t0)
	mallocs, _ := rt.since()
	r.set("dnswire.marshal_ns_per_msg", ratio(float64(marshal.Nanoseconds()), float64(len(qs))), len(qs))
	r.set("dnswire.unmarshal_ns_per_msg", ratio(float64(unmarshal.Nanoseconds()), float64(n)), n)
	r.set("dnswire.allocs_per_roundtrip", ratio(float64(mallocs), float64(n)), n)
	r.set("dnswire.response_bytes_mean", ratio(float64(respBytes), float64(len(qs))), len(qs))

	rt = markRuntime()
	for _, q := range queries {
		srv.HandleQuery(q)
	}
	mallocs, _ = rt.since()
	r.set("dnsserver.handle_allocs_per_query", ratio(float64(mallocs), float64(n)), n)
}
