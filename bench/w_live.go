package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/simclock"
)

// liveFixture is the Section 6 supplemental run wired by the harness the
// way core.Study.Supplemental wires it — the nine live networks (DHCP,
// IPAM, DNS UPDATE, authoritative server) on the fabric and a simulated
// clock, the reactive engine probing them from outside — but stepped hour
// by hour, so the run can be timed, stopped at a wall-clock deadline and
// wrapped in spans. The gate proves the re-wiring faithful: its results at
// a checkpoint must equal core.Study.Supplemental's own.
type liveFixture struct {
	clock  *simclock.Simulated
	fab    *fabric.Fabric
	nets   []*netsim.Network
	engine *reactive.Engine
	hours  int    // simulated hours advanced so far
	check  uint64 // results digest at the checkpoint hour, once reached
}

func (e *env) liveConfig(hours int) core.Config {
	return core.Config{
		Seed:              e.seed,
		Universe:          e.sz.Universe,
		SupplementalStart: liveStart,
		SupplementalEnd:   liveStart.Add(time.Duration(hours) * time.Hour),
	}
}

func (fx *liveFixture) close() {
	fx.engine.Stop()
	for _, n := range fx.nets {
		n.Stop()
	}
}

// buildLive builds the universe, starts the networks and the engine, and
// advances the first simulated hour (the engine's first full ICMP sweep)
// as warm-up.
func buildLive(e *env, rec *recorder) (*liveFixture, error) {
	id := rec.begin(rec.op("netsim.BuildStudyUniverse"), 0)
	study, err := core.NewStudy(e.liveConfig(e.sz.LiveCheckHours))
	rec.end(id)
	if err != nil {
		return nil, err
	}
	fx := &liveFixture{clock: simclock.NewSimulated(liveStart)}
	id = rec.begin(rec.op("fabric.New"), 0)
	fx.fab = fabric.New(fx.clock, fabric.Config{
		Latency: 20 * time.Millisecond,
		Jitter:  10 * time.Millisecond,
		Seed:    int64(e.seed) + 5,
	})
	rec.end(id)
	opStart := rec.op("netsim.Start")
	for i, name := range netsim.SupplementalNames() {
		n, ok := study.Universe.NetworkByName(name)
		if !ok {
			continue
		}
		n.SetDNSFailure(study.Cfg.DNSFailure)
		id := rec.begin(opStart, uint32(i))
		err := n.Start(fx.fab)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		fx.nets = append(fx.nets, n)
	}
	id = rec.begin(rec.op("reactive.NewEngine"), 0)
	fx.engine, err = reactive.NewEngine(fx.fab, reactive.Config{
		Targets:     study.SupplementalTargets(),
		VantageICMP: dnswire.MustIPv4("198.51.100.10"),
		VantageDNS:  dnswire.MustIPv4("198.51.100.11"),
		DNSRetries:  1,
		TracerSeed:  int64(e.seed),
	})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(rec.op("reactive.Start"), 0)
	err = fx.engine.Start()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	fx.advanceHour(e, rec)
	return fx, nil
}

// advanceHour moves the simulated clock one hour and returns the wall
// time that took.
func (fx *liveFixture) advanceHour(e *env, rec *recorder) time.Duration {
	t0 := time.Now()
	id := rec.begin(rec.op("simclock.Advance"), uint32(fx.hours))
	fx.clock.Advance(time.Hour)
	rec.end(id)
	d := time.Since(t0)
	fx.hours++
	if fx.hours == e.sz.LiveCheckHours {
		fx.check = liveDigest(fx.engine.Results())
	}
	return d
}

// liveDigest hashes what the engine has measured so far. Open groups are
// left out: the engine only counts them when it stops.
func liveDigest(res *reactive.Results) uint64 {
	f := res.Funnel()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d", len(res.Groups), f.Successful, f.Reverted, f.Reliable,
		res.ICMPResponses, res.RDNSResponses, res.ICMPUniqueIPs, res.RDNSUniqueIPs)
	return h.Sum64()
}

// livePhase advances whole simulated days until dur has passed (and at
// least to the checkpoint hour), or exactly stopAt hours when stopAt > 0.
func (fx *liveFixture) livePhase(e *env, rec *recorder, dur time.Duration, stopAt int) (hourMS, dayUS []float64, wall time.Duration) {
	begin := time.Now()
	for {
		var day time.Duration
		for h := 0; h < 24; h++ {
			d := fx.advanceHour(e, rec)
			hourMS = append(hourMS, float64(d.Microseconds())/1e3)
			day += d
			wall += d
			if stopAt > 0 && fx.hours >= stopAt {
				return hourMS, dayUS, wall
			}
		}
		dayUS = append(dayUS, float64(day.Microseconds()))
		if stopAt == 0 && time.Since(begin) >= dur && fx.hours >= e.sz.LiveCheckHours {
			return hourMS, dayUS, wall
		}
	}
}

// runLive measures the event-driven path: fabric delivery, the
// packet-level universe tick, DHCP/IPAM/DNS UPDATE on the operator side
// and ICMP + reactive rDNS on the measurement side. It uses dnswire and
// dnsserver differently from the sweeps (UPDATEs and NXDOMAIN-as-signal
// beside reads), so a sweep-only shortcut that costs this path shows.
func runLive(e *env, r *result) error {
	t0 := time.Now()
	fx, err := buildLive(e, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds(), 1)
	defer fx.close()
	prodFor, singleFor, _ := e.phases()

	rt := markRuntime()
	hourMS, dayUS, wall := fx.livePhase(e, nil, prodFor, 0)
	rt.report(r)
	hours := len(hourMS)
	r.Attempted += int64(hours)
	// The median day, not total hours over total wall: weekdays cost more
	// than weekend days, and how many of each a run covers depends on how
	// fast it went.
	rate := 24 / (median(dayUS) / 1e6)
	reportOps(r, "bench.sim_hours_per_s", rate, len(dayUS), dayUS)
	r.notef("op is one simulated day (24 hourly ticks); %d simulated hours in %.2fs wall", hours, wall.Seconds())

	// Gate: the same seed through core.Study.Supplemental must give the same
	// results at the checkpoint — a second run of the seed, and the
	// production wiring rather than the harness's.
	ref, err := core.NewStudy(e.liveConfig(e.sz.LiveCheckHours))
	if err != nil {
		return err
	}
	want := liveDigest(ref.Supplemental())
	if fx.check != want {
		r.Failed++
		r.problemf("results digest at hour %d: %016x, core.Study.Supplemental gives %016x", e.sz.LiveCheckHours, fx.check, want)
	}
	var joinFailures uint64
	for _, n := range fx.nets {
		joinFailures += n.JoinFailures()
	}
	r.Failed += int64(joinFailures)
	if joinFailures != 0 {
		r.problemf("%d device joins failed (address pool exhausted)", joinFailures)
	}

	if e.trace {
		fs := fx.fab.Stats()
		total := float64(fx.hours)
		r.set("netsim.live_join_failures", float64(joinFailures), len(fx.nets))
		r.set("fabric.datagrams_per_sim_hour", float64(fs.DatagramsSent)/total, fx.hours)
		r.set("fabric.icmp_per_sim_hour", float64(fs.ICMPSent)/total, fx.hours)
		r.set("fabric.dropped_ratio", ratio(float64(fs.DatagramsDropped+fs.ICMPDropped), float64(fs.DatagramsSent+fs.ICMPSent)), int(fs.DatagramsSent+fs.ICMPSent))
		res := fx.engine.Results()
		r.set("reactive.groups_per_sim_day", float64(len(res.Groups))/(total/24), len(res.Groups))
		var bad, all int
		for _, d := range res.Days {
			bad += d.ServFail + d.Timeout
			all += d.ServFail + d.Timeout + d.NXDomain + d.OKResponse
		}
		r.set("reactive.dns_error_ratio", ratio(float64(bad), float64(all)), all)
		ht := summarize(hourMS)
		r.set("reactive.wall_ms_per_sim_hour_p50", ht.P50, ht.N)
		r.set("reactive.wall_ms_per_sim_hour_p95", percentile(hourMS, 95), ht.N) // sorted by summarize
		r.set("fabric.send_ns_per_datagram", replayFabric(e), fabricReplayDatagrams)
		if err := traceLive(e, r, want, singleFor); err != nil {
			return err
		}
	}
	finish(r)
	return nil
}

// traceLive runs the live wiring twice more from the start of the week —
// recorder off, then on — over the same simulated hours.
func traceLive(e *env, r *result, want uint64, dur time.Duration) error {
	off, err := buildLive(e, nil)
	if err != nil {
		return err
	}
	offHours, _, offWall := off.livePhase(e, nil, dur, 0)
	off.close()

	rec := newRecorder()
	root := rec.begin(rec.op("bench.workload"), 0)
	on, err := buildLive(e, rec)
	if err != nil {
		return err
	}
	onHours, _, onWall := on.livePhase(e, rec, 0, off.hours)
	on.close()
	traceReport(e, r, rec, root, float64(len(offHours))/offWall.Seconds(), float64(len(onHours))/onWall.Seconds())
	for _, fx := range []*liveFixture{off, on} {
		if fx.check != want {
			r.Failed++
			r.problemf("repeat run: results digest %016x at the checkpoint, want %016x", fx.check, want)
		}
	}
	return nil
}

const fabricReplayDatagrams = 20000

// replayFabric times the fabric alone: Bind two endpoints and push
// datagrams of a PTR query's size through Send and simulated delivery.
func replayFabric(e *env) float64 {
	clock := simclock.NewSimulated(liveStart)
	fab := fabric.New(clock, fabric.Config{Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: int64(e.seed) + 5})
	a, b := fabric.Addr{IP: dnswire.MustIPv4("198.51.100.20"), Port: 4000}, fabric.Addr{IP: dnswire.MustIPv4("198.51.100.21"), Port: 53}
	delivered := 0
	dst, err := fab.Bind(b, func(fabric.Datagram) { delivered++ })
	if err != nil {
		return 0
	}
	defer dst.Close()
	src, err := fab.Bind(a, func(fabric.Datagram) {})
	if err != nil {
		return 0
	}
	defer src.Close()
	payload := make([]byte, 44)
	t0 := time.Now()
	for i := 0; i < fabricReplayDatagrams; i++ {
		if src.Send(b, payload) != nil {
			return 0
		}
		if i%256 == 255 {
			clock.Advance(time.Second)
		}
	}
	clock.Advance(time.Second)
	d := time.Since(t0)
	if delivered != fabricReplayDatagrams {
		return 0
	}
	return float64(d.Nanoseconds()) / fabricReplayDatagrams
}
