package reactive

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rdnsprivacy/internal/analysis"
	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/icmp"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// Target is one network under supplemental measurement.
type Target struct {
	// Name labels the network in reports (Table 4 uses anonymized
	// names).
	Name string
	// Prefixes is the targeted address space — the paper makes "a
	// weighted selection of which address space ... to target" and digs
	// into the subnets with the most dynamically assigned hosts
	// (Section 6.1).
	Prefixes []dnswire.Prefix
	// DNS is the authoritative name server for the target's reverse
	// zones, queried directly for fresh answers.
	DNS fabric.Addr
}

// Config tunes the engine.
type Config struct {
	// Targets are the networks to measure.
	Targets []Target
	// VantageICMP is the source address for ICMP probes.
	VantageICMP dnswire.IPv4
	// VantageDNS is the source address for DNS queries (one port per
	// target is derived from it).
	VantageDNS dnswire.IPv4
	// SweepInterval is the full-target ICMP scan cadence (paper:
	// hourly).
	SweepInterval time.Duration
	// Backoff is the reactive schedule (paper: Table 2).
	Backoff []BackoffStep
	// ProbeTimeout bounds individual ICMP probes.
	ProbeTimeout time.Duration
	// DNSTimeout and DNSRetries configure the resolver.
	DNSTimeout time.Duration
	DNSRetries int
	// CooldownCap bounds how long reverse-DNS follow-up continues after
	// a host disappears before the group is abandoned (default 12h).
	CooldownCap time.Duration
	// Blocklist removes opted-out space from probing.
	Blocklist []dnswire.Prefix
	// Telemetry, when non-nil, receives the engine's metrics (sweep,
	// probe, group-lifecycle and PTR-removal counters — see telemetry.go)
	// and is handed to the per-target resolvers for the dnsclient metrics.
	Telemetry telemetry.Sink
	// Tracer, when non-nil, is handed to the per-target resolvers so every
	// follow-up PTR attempt emits a correlated "attempt" span
	// (telemetry.CorrID keyed by TracerSeed).
	Tracer *telemetry.Tracer
	// TracerSeed keys the correlation IDs when Tracer is set.
	TracerSeed int64
}

// Engine runs the supplemental measurement on a fabric. Create one with
// NewEngine, Start it, advance the clock across the measurement window,
// then Stop and read Results.
type Engine struct {
	fab   *fabric.Fabric
	clock simclock.Clock
	cfg   Config

	prober    *icmp.Prober
	resolvers map[string]*dnsclient.Resolver
	tickers   []*simclock.Ticker
	met       *reactiveMetrics // nil when telemetry is off

	mu      sync.Mutex
	started bool
	state   map[dnswire.IPv4]*hostState
	results *Results
	groupID uint64
}

// hostState is the per-address reactive state machine.
type hostState struct {
	target      *Target
	phase       hostPhase
	group       *Group
	backoff     *Backoff
	lastAliveAt time.Time // untruncated time of the last alive probe
	timer       simclock.Timer
	cooldownT   simclock.Timer
}

type hostPhase int

const (
	phaseIdle hostPhase = iota
	phaseActive
	phaseCooldown
)

// Group is one client activity period — the unit of Table 5.
type Group struct {
	// ID is a sequential group identifier.
	ID uint64
	// Network names the target.
	Network string
	// IP is the address.
	IP dnswire.IPv4
	// Start is the first alive observation (5-minute truncated).
	Start time.Time
	// LastAlive is the last successful ICMP probe (5-minute truncated).
	LastAlive time.Time
	// DetectGap is the probe interval in force when the host
	// disappeared: how stale LastAlive can be.
	DetectGap time.Duration
	// FirstPTR and LastPTR are the first and last hostnames observed.
	FirstPTR, LastPTR dnswire.Name
	// PTRSeen reports a successful phase-1 rDNS lookup.
	PTRSeen bool
	// PTRRemovedAt is the first NXDOMAIN after disappearance
	// (5-minute truncated); zero if removal was never observed.
	PTRRemovedAt time.Time
	// Reverted reports that the PTR was observed and then observed
	// removed.
	Reverted bool
	// Complete reports successful ICMP and rDNS coverage of phases 1
	// and 3.
	Complete bool
	// ReliableTiming reports that the disappearance was detected at
	// fine probe granularity, so the removal delta is trustworthy. The
	// paper discards roughly 1 in 4 reverted groups for timing
	// mechanics it cannot correct at run time (Table 5).
	ReliableTiming bool
	// Interrupted marks groups cut short by the host reappearing
	// before follow-up concluded.
	Interrupted bool
}

// RemovalDelta returns the minutes between the last alive ICMP sample and
// the observed PTR removal — the x-axis of Figure 7.
func (g *Group) RemovalDelta() time.Duration {
	if !g.Reverted {
		return 0
	}
	return g.PTRRemovedAt.Sub(g.LastAlive)
}

// DayCounts carries the Figure 6 per-day accounting.
type DayCounts struct {
	Day        time.Time
	UniqueIPs  int
	NXDomain   int
	ServFail   int
	Timeout    int
	OKResponse int
}

// HourCount is an hourly activity sample for the Figure 11 case study.
type HourCount struct {
	Hour time.Time
	ICMP int
	RDNS int
}

// Results aggregates everything the engine measured.
type Results struct {
	// Groups holds every activity group, closed or abandoned.
	Groups []*Group
	// OpenGroups counts groups still open when the engine stopped.
	OpenGroups int
	// ICMPResponses and RDNSResponses are total successful responses
	// (Table 3).
	ICMPResponses uint64
	RDNSResponses uint64
	// ICMPUniqueIPs / RDNSUniqueIPs / RDNSUniquePTRs are distinct-entity
	// counts (Table 3).
	ICMPUniqueIPs  int
	RDNSUniqueIPs  int
	RDNSUniquePTRs int
	// PerNetworkAlive counts distinct addresses that ever answered a
	// ping, per network (Table 4).
	PerNetworkAlive map[string]int
	// Days carries Figure 6 error accounting in day order.
	Days []*DayCounts
	// Hours carries Figure 11 activity counts in hour order, per
	// network.
	Hours map[string][]*HourCount

	icmpIPs  map[dnswire.IPv4]struct{}
	rdnsIPs  map[dnswire.IPv4]struct{}
	rdnsPTRs map[dnswire.Name]struct{}
	dayIdx   map[time.Time]*DayCounts
	dayIPs   map[time.Time]map[dnswire.IPv4]struct{}
	hourIdx  map[string]map[time.Time]*HourCount
	aliveIPs map[string]map[dnswire.IPv4]struct{}
}

func newResults() *Results {
	return &Results{
		PerNetworkAlive: make(map[string]int),
		Hours:           make(map[string][]*HourCount),
		icmpIPs:         make(map[dnswire.IPv4]struct{}),
		rdnsIPs:         make(map[dnswire.IPv4]struct{}),
		rdnsPTRs:        make(map[dnswire.Name]struct{}),
		dayIdx:          make(map[time.Time]*DayCounts),
		dayIPs:          make(map[time.Time]map[dnswire.IPv4]struct{}),
		hourIdx:         make(map[string]map[time.Time]*HourCount),
		aliveIPs:        make(map[string]map[dnswire.IPv4]struct{}),
	}
}

// NewEngine creates an engine over a fabric.
func NewEngine(fab *fabric.Fabric, cfg Config) (*Engine, error) {
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = time.Hour
	}
	if len(cfg.Backoff) == 0 {
		cfg.Backoff = PaperBackoff()
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.DNSTimeout <= 0 {
		cfg.DNSTimeout = 2 * time.Second
	}
	if cfg.CooldownCap <= 0 {
		cfg.CooldownCap = 12 * time.Hour
	}
	e := &Engine{
		fab:       fab,
		clock:     fab.Clock(),
		cfg:       cfg,
		resolvers: make(map[string]*dnsclient.Resolver),
		state:     make(map[dnswire.IPv4]*hostState),
		results:   newResults(),
	}
	if cfg.Telemetry != nil {
		e.met = newReactiveMetrics(cfg.Telemetry)
	}
	prober, err := icmp.NewProber(fab, icmp.ProberConfig{
		Vantage:   cfg.VantageICMP,
		Timeout:   cfg.ProbeTimeout,
		ID:        0x7e57,
		Blocklist: cfg.Blocklist,
	})
	if err != nil {
		return nil, err
	}
	e.prober = prober
	for i := range cfg.Targets {
		t := &cfg.Targets[i]
		opts := []dnsclient.Option{
			dnsclient.WithBind(fabric.Addr{IP: cfg.VantageDNS, Port: uint16(40000 + i)}),
			dnsclient.WithServer(t.DNS),
			dnsclient.WithTimeout(cfg.DNSTimeout),
			dnsclient.WithRetries(cfg.DNSRetries),
		}
		if cfg.Telemetry != nil {
			// All per-target resolvers share one sink, so the dnsclient
			// counters aggregate across targets.
			opts = append(opts, dnsclient.WithTelemetry(cfg.Telemetry))
		}
		if cfg.Tracer != nil {
			opts = append(opts,
				dnsclient.WithTracer(cfg.Tracer),
				dnsclient.WithSeed(cfg.TracerSeed))
		}
		res, err := dnsclient.NewResolver(fab, opts...)
		if err != nil {
			return nil, fmt.Errorf("reactive: resolver for %s: %w", t.Name, err)
		}
		e.resolvers[t.Name] = res
	}
	return e, nil
}

// Start runs the first sweep immediately and schedules hourly sweeps.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return fmt.Errorf("reactive: already started")
	}
	e.started = true
	e.mu.Unlock()
	e.sweepAll(e.clock.Now())
	e.tickers = append(e.tickers, simclock.NewTicker(e.clock, e.cfg.SweepInterval, e.sweepAll))
	return nil
}

// Stop cancels sweeps and closes open groups as incomplete.
func (e *Engine) Stop() {
	for _, t := range e.tickers {
		t.Stop()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, hs := range e.state {
		if hs.timer != nil {
			hs.timer.Stop()
		}
		if hs.cooldownT != nil {
			hs.cooldownT.Stop()
		}
		if hs.group != nil {
			e.results.OpenGroups++
		}
	}
}

// Results finalizes and returns the measurement results.
func (e *Engine) Results() *Results {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.results
	r.ICMPUniqueIPs = len(r.icmpIPs)
	r.RDNSUniqueIPs = len(r.rdnsIPs)
	r.RDNSUniquePTRs = len(r.rdnsPTRs)
	for name, set := range r.aliveIPs {
		r.PerNetworkAlive[name] = len(set)
	}
	return r
}

// ProberStats returns the ICMP prober's own counters.
func (e *Engine) ProberStats() icmp.ProberStats { return e.prober.Stats() }

// sweepAll probes every targeted address once.
func (e *Engine) sweepAll(now time.Time) {
	if m := e.met; m != nil {
		m.sweeps.Inc()
	}
	for i := range e.cfg.Targets {
		t := &e.cfg.Targets[i]
		done := func(r icmp.ProbeResult) { e.onProbe(t, r) }
		for _, p := range t.Prefixes {
			n := p.NumAddresses()
			if m := e.met; m != nil {
				m.icmpProbes.Add(uint64(n))
			}
			for a := 0; a < n; a++ {
				e.prober.Probe(p.Nth(a), done)
			}
		}
	}
}

// onProbe handles any ICMP probe result, whether from a sweep or a
// reactive back-off probe.
func (e *Engine) onProbe(t *Target, r icmp.ProbeResult) {
	now := e.clock.Now()
	e.mu.Lock()
	if r.Alive {
		e.recordICMPLocked(t, r.Target, now)
	}
	hs := e.state[r.Target]
	if hs == nil {
		hs = &hostState{target: t, phase: phaseIdle}
		e.state[r.Target] = hs
	}
	switch hs.phase {
	case phaseIdle:
		if !r.Alive {
			e.mu.Unlock()
			return
		}
		e.openGroupLocked(hs, r.Target, now)
		e.mu.Unlock()
		// Phase 1: spot rDNS lookup to record the PTR value.
		e.lookupPTR(t, r.Target, hs.group)
		e.scheduleReactiveProbe(hs, r.Target)
	case phaseActive:
		if r.Alive {
			hs.group.LastAlive = analysis.TruncateTo5Min(now)
			hs.lastAliveAt = now
			e.mu.Unlock()
			return
		}
		// Host disappeared: enter cooldown and chase the PTR removal.
		// The detection gap is how stale the last alive sample is.
		hs.phase = phaseCooldown
		hs.group.DetectGap = now.Sub(hs.lastAliveAt)
		if hs.timer != nil {
			hs.timer.Stop()
			hs.timer = nil
		}
		hs.backoff = NewBackoff(e.cfg.Backoff)
		group := hs.group
		started := now
		e.mu.Unlock()
		e.followUpPTR(hs, r.Target, group, started)
	case phaseCooldown:
		if r.Alive {
			// The host came back before follow-up concluded: close
			// the current group as interrupted, open a new one.
			e.closeGroupLocked(hs, true)
			e.openGroupLocked(hs, r.Target, now)
			e.mu.Unlock()
			e.lookupPTR(t, r.Target, hs.group)
			e.scheduleReactiveProbe(hs, r.Target)
			return
		}
		e.mu.Unlock()
	}
}

// openGroupLocked starts a new activity group. Caller holds e.mu.
func (e *Engine) openGroupLocked(hs *hostState, ip dnswire.IPv4, now time.Time) {
	if m := e.met; m != nil {
		m.groupsOpened.Inc()
	}
	e.groupID++
	hs.phase = phaseActive
	hs.backoff = NewBackoff(e.cfg.Backoff)
	hs.lastAliveAt = now
	hs.group = &Group{
		ID:        e.groupID,
		Network:   hs.target.Name,
		IP:        ip,
		Start:     analysis.TruncateTo5Min(now),
		LastAlive: analysis.TruncateTo5Min(now),
	}
}

// closeGroupLocked finalizes the current group. Caller holds e.mu.
func (e *Engine) closeGroupLocked(hs *hostState, interrupted bool) {
	g := hs.group
	if g == nil {
		return
	}
	if m := e.met; m != nil {
		m.groupsClosed.Inc()
		if interrupted {
			m.groupsInterr.Inc()
		}
	}
	g.Interrupted = interrupted
	g.Complete = g.PTRSeen && !g.PTRRemovedAt.IsZero() && !interrupted
	g.Reverted = g.Complete && g.PTRSeen
	// Timing is reliable only when the disappearance was detected while
	// the back-off was still sub-hourly: once probing decays to 60-minute
	// intervals, LastAlive can be stale by a full hour and the removal
	// delta is dominated by the measurement, not the network — the
	// paper's "timing mechanics of the ICMP probes, which cannot be
	// accounted for at run-time without compromising the back off
	// mechanism" (Table 5).
	g.ReliableTiming = g.Reverted && g.DetectGap <= 35*time.Minute
	e.results.Groups = append(e.results.Groups, g)
	hs.group = nil
	hs.phase = phaseIdle
	if hs.timer != nil {
		hs.timer.Stop()
		hs.timer = nil
	}
	if hs.cooldownT != nil {
		hs.cooldownT.Stop()
		hs.cooldownT = nil
	}
}

// scheduleReactiveProbe arms the next back-off ICMP probe for an active
// host.
func (e *Engine) scheduleReactiveProbe(hs *hostState, ip dnswire.IPv4) {
	e.mu.Lock()
	if hs.phase != phaseActive {
		e.mu.Unlock()
		return
	}
	delay, ok := hs.backoff.Next()
	if !ok {
		e.mu.Unlock()
		return
	}
	hs.timer = e.clock.AfterFunc(delay, func() {
		if m := e.met; m != nil {
			m.icmpProbes.Inc()
			m.backoffProbes.Inc()
		}
		e.prober.Probe(ip, func(r icmp.ProbeResult) {
			e.onProbe(hs.target, r)
			if r.Alive {
				e.scheduleReactiveProbe(hs, ip)
			}
		})
	})
	e.mu.Unlock()
}

// lookupPTR performs the phase-1 spot rDNS lookup, retrying once after five
// minutes if the record is not there yet (see the paper's footnote 5).
func (e *Engine) lookupPTR(t *Target, ip dnswire.IPv4, g *Group) {
	res := e.resolvers[t.Name]
	res.LookupPTR(context.Background(), ip, func(r dnsclient.Response) {
		e.recordDNS(t, ip, r)
		e.mu.Lock()
		hs := e.state[ip]
		current := hs != nil && hs.group == g
		if current && r.Outcome == dnsclient.OutcomeSuccess {
			g.PTRSeen = true
			if g.FirstPTR == "" {
				g.FirstPTR = r.PTR
			}
			g.LastPTR = r.PTR
		}
		retry := current && r.Outcome == dnsclient.OutcomeNXDomain && g.FirstPTR == ""
		e.mu.Unlock()
		if retry {
			e.clock.AfterFunc(5*time.Minute, func() {
				e.mu.Lock()
				still := e.state[ip] != nil && e.state[ip].group == g
				e.mu.Unlock()
				if still {
					e.lookupPTRNoRetry(t, ip, g)
				}
			})
		}
	})
}

func (e *Engine) lookupPTRNoRetry(t *Target, ip dnswire.IPv4, g *Group) {
	res := e.resolvers[t.Name]
	res.LookupPTR(context.Background(), ip, func(r dnsclient.Response) {
		e.recordDNS(t, ip, r)
		e.mu.Lock()
		if hs := e.state[ip]; hs != nil && hs.group == g && r.Outcome == dnsclient.OutcomeSuccess {
			g.PTRSeen = true
			if g.FirstPTR == "" {
				g.FirstPTR = r.PTR
			}
			g.LastPTR = r.PTR
		}
		e.mu.Unlock()
	})
}

// followUpPTR chases the PTR removal after a host disappears, walking the
// back-off schedule until NXDOMAIN, the cap, or reappearance.
func (e *Engine) followUpPTR(hs *hostState, ip dnswire.IPv4, g *Group, started time.Time) {
	res := e.resolvers[hs.target.Name]
	var step func()
	step = func() {
		e.mu.Lock()
		if hs.group != g || hs.phase != phaseCooldown {
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		res.LookupPTR(context.Background(), ip, func(r dnsclient.Response) {
			e.recordDNS(hs.target, ip, r)
			now := e.clock.Now()
			e.mu.Lock()
			if hs.group != g || hs.phase != phaseCooldown {
				e.mu.Unlock()
				return
			}
			switch r.Outcome {
			case dnsclient.OutcomeSuccess:
				g.LastPTR = r.PTR
				if g.FirstPTR == "" {
					g.FirstPTR = r.PTR
					g.PTRSeen = true
				}
			case dnsclient.OutcomeNXDomain:
				g.PTRRemovedAt = analysis.TruncateTo5Min(now)
				if m := e.met; m != nil {
					m.ptrRemovals.Inc()
				}
				e.closeGroupLocked(hs, false)
				e.mu.Unlock()
				return
			}
			if now.Sub(started) > e.cfg.CooldownCap {
				e.closeGroupLocked(hs, false)
				e.mu.Unlock()
				return
			}
			delay, ok := hs.backoff.Next()
			if !ok {
				e.closeGroupLocked(hs, false)
				e.mu.Unlock()
				return
			}
			hs.cooldownT = e.clock.AfterFunc(delay, step)
			e.mu.Unlock()
		})
	}
	// The first follow-up lookup fires immediately on disappearance
	// (releasing clients have often already lost their PTR by then,
	// which is what produces the paper's ~5-minute peak); the back-off
	// paces the lookups after it.
	e.mu.Lock()
	hs.cooldownT = e.clock.AfterFunc(0, step)
	e.mu.Unlock()
}

// recordICMPLocked books a successful ICMP response. Caller holds e.mu.
func (e *Engine) recordICMPLocked(t *Target, ip dnswire.IPv4, now time.Time) {
	if m := e.met; m != nil {
		m.icmpAlive.Inc()
	}
	r := e.results
	r.ICMPResponses++
	r.icmpIPs[ip] = struct{}{}
	set, ok := r.aliveIPs[t.Name]
	if !ok {
		set = make(map[dnswire.IPv4]struct{})
		r.aliveIPs[t.Name] = set
	}
	set[ip] = struct{}{}
	e.hourCountLocked(t.Name, now).ICMP++
	e.dayIPLocked(now, ip)
}

// recordDNS books a DNS response for error accounting and Table 3.
func (e *Engine) recordDNS(t *Target, ip dnswire.IPv4, resp dnsclient.Response) {
	if m := e.met; m != nil {
		m.rdnsLookups.Inc()
	}
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.results
	day := e.dayLocked(now)
	e.dayIPLocked(now, ip)
	switch resp.Outcome {
	case dnsclient.OutcomeSuccess:
		r.RDNSResponses++
		r.rdnsIPs[ip] = struct{}{}
		r.rdnsPTRs[resp.PTR] = struct{}{}
		day.OKResponse++
		e.hourCountLocked(t.Name, now).RDNS++
	case dnsclient.OutcomeNXDomain:
		day.NXDomain++
	case dnsclient.OutcomeServFail, dnsclient.OutcomeRefused, dnsclient.OutcomeMalformed:
		day.ServFail++
	case dnsclient.OutcomeTimeout:
		day.Timeout++
	}
}

func (e *Engine) dayLocked(now time.Time) *DayCounts {
	day := now.Truncate(24 * time.Hour)
	d, ok := e.results.dayIdx[day]
	if !ok {
		d = &DayCounts{Day: day}
		e.results.dayIdx[day] = d
		e.results.Days = append(e.results.Days, d)
	}
	return d
}

func (e *Engine) dayIPLocked(now time.Time, ip dnswire.IPv4) {
	day := now.Truncate(24 * time.Hour)
	set, ok := e.results.dayIPs[day]
	if !ok {
		set = make(map[dnswire.IPv4]struct{})
		e.results.dayIPs[day] = set
	}
	if _, seen := set[ip]; !seen {
		set[ip] = struct{}{}
		e.dayLocked(now).UniqueIPs++
	}
}

func (e *Engine) hourCountLocked(network string, now time.Time) *HourCount {
	hour := now.Truncate(time.Hour)
	idx, ok := e.results.hourIdx[network]
	if !ok {
		idx = make(map[time.Time]*HourCount)
		e.results.hourIdx[network] = idx
	}
	h, ok := idx[hour]
	if !ok {
		h = &HourCount{Hour: hour}
		idx[hour] = h
		e.results.Hours[network] = append(e.results.Hours[network], h)
	}
	return h
}

// Funnel is the Table 5 breakdown: all groups, down to those with complete
// phase coverage, those whose PTR was observed to revert, and those whose
// timing is reliable enough for the Figure 7 analysis.
type Funnel struct {
	All        int
	Successful int
	Reverted   int
	Reliable   int
}

// Fraction formats one funnel level as a fraction of its parent.
func (f Funnel) Fraction(level int) float64 {
	switch level {
	case 1:
		if f.All == 0 {
			return 0
		}
		return float64(f.Successful) / float64(f.All)
	case 2:
		if f.Successful == 0 {
			return 0
		}
		return float64(f.Reverted) / float64(f.Successful)
	case 3:
		if f.Reverted == 0 {
			return 0
		}
		return float64(f.Reliable) / float64(f.Reverted)
	}
	return 1
}

// Funnel computes the Table 5 breakdown over all groups, including groups
// still open at engine stop (they are part of "all groups" but cannot be
// complete).
func (r *Results) Funnel() Funnel {
	f := Funnel{All: len(r.Groups) + r.OpenGroups}
	for _, g := range r.Groups {
		if g.Complete {
			f.Successful++
		}
		if g.Reverted {
			f.Reverted++
		}
		if g.ReliableTiming {
			f.Reliable++
		}
	}
	return f
}

// RemovalDeltas returns the removal deltas (in minutes) of all reliable
// groups, optionally restricted to one network — the Figure 7 samples.
func (r *Results) RemovalDeltas(network string) []float64 {
	var out []float64
	for _, g := range r.Groups {
		if !g.ReliableTiming {
			continue
		}
		if network != "" && g.Network != network {
			continue
		}
		out = append(out, g.RemovalDelta().Minutes())
	}
	return out
}
