// Package faultsim is the one seeded, deterministic fault model of the
// simulated rDNS universe. An Injector holds per-network fault profiles:
// packet loss, latency and latency spikes, SERVFAIL/REFUSED bursts,
// truncation-style outage windows (server flaps and restarts), and
// rate-limit throttling. dnsserver.Server consults an installed injector
// for its verdict on every query it parses (the Study's live networks
// fail this way), and Wrap puts the same decision in front of any other
// message-level handler.
//
// Determinism is the point. Every probabilistic decision is a pure
// function of (seed, question name, per-name attempt number), computed
// with telemetry.Mix64 over the name's FNV-1a hash; outage windows are
// matched against per-profile query counters, not wall-clock time.
// Replaying the same query sequence against the same seed therefore
// reproduces the same faults bit-identically, regardless of goroutine
// scheduling — the property the scenario harness asserts by
// running every pipeline twice and comparing digests.
//
// Two caveats follow from the design:
//
//   - Count-based windows are deterministic only when each profile's
//     counter sees a deterministic query sequence: align profile prefixes
//     with the scan engine's shards (shards probe sequentially), or run a
//     single worker.
//   - Injected latency blocks the calling goroutine on the injector's
//     clock; with a simclock.Simulated nobody advances mid-call, so
//     latency profiles are for real-clock pipelines (scan-side tests use
//     small real delays). A server that consults the injector delays
//     nothing: latency is Wrap's alone.
//
// Rate limits are token buckets on the injector's clock and intentionally
// nondeterministic in fault counts (they model a server's view of probe
// timing); scenarios exercising them compare record sets, not fault
// tallies.
package faultsim

import (
	"sync"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// Handler is the message-level server interface the injector wraps and
// presents: one wire-format query in, one wire-format response out, nil
// meaning the query was dropped. It matches dnsclient.QueryHandler and
// dnsserver.Server structurally; the type is redeclared here so faultsim
// depends on neither.
type Handler interface {
	HandleQuery(query []byte) []byte
}

// Window is a count-based outage window matched against a profile's
// query counter (0-based): queries [After, After+For) are affected; with
// Every > 0 the window repeats with that period, modelling a flapping
// server rather than a single outage.
type Window struct {
	// After is how many queries pass before the window opens.
	After int
	// For is the window length in queries.
	For int
	// Every, when positive, repeats the window with this period
	// (measured from After). Must be >= For to leave any gap.
	Every int
}

// match reports whether query number n (0-based) falls in the window.
func (w *Window) match(n uint64) bool {
	if w == nil || w.For <= 0 {
		return false
	}
	after := uint64(w.After)
	if n < after {
		return false
	}
	if w.Every > 0 {
		return (n-after)%uint64(w.Every) < uint64(w.For)
	}
	return n < after+uint64(w.For)
}

// RateLimit is a wall-clock token bucket modelling a rate-limiting name
// server.
type RateLimit struct {
	// QPS is the sustained refill rate. Zero disables the limit.
	QPS int
	// Burst is the bucket depth. Values below 1 mean 1.
	Burst int
	// Refuse answers throttled queries with REFUSED (the in-band
	// slow-down signal); false drops them silently.
	Refuse bool
}

// Profile is the fault behaviour of one address range. The zero value
// injects nothing.
type Profile struct {
	// Prefix selects the queries this profile governs (by the IP encoded
	// in the PTR question name). Overlapping profiles resolve to the most
	// specific prefix.
	Prefix dnswire.Prefix
	// Loss is the fraction of queries silently dropped.
	Loss float64
	// ServFailRate is the fraction of queries answered SERVFAIL.
	ServFailRate float64
	// RefusedRate is the fraction of queries answered REFUSED.
	RefusedRate float64
	// Latency delays every answered query.
	Latency time.Duration
	// SpikeRate is the fraction of queries additionally delayed by
	// SpikeLatency — the long tail hedged lookups exist to cut.
	SpikeRate    float64
	SpikeLatency time.Duration
	// Drop is a count-based outage window of silent drops (server down,
	// or flapping with Window.Every).
	Drop *Window
	// ServFail is a count-based window of SERVFAIL answers (server up
	// but broken — a restart's warm-up, a backend failure).
	ServFail *Window
	// Limit throttles the profile's query rate.
	Limit *RateLimit
}

// Plan is an injector's seed and profiles as one value, the form a config
// carries. Each live network builds its own Injector from the plan at
// start, so networks on one plan draw the same verdicts from their own
// per-name counters.
type Plan struct {
	Seed     int64
	Profiles []Profile
}

// Stats counts one profile's injections.
type Stats struct {
	Queries   uint64
	Dropped   uint64
	ServFails uint64
	Refused   uint64
	Spiked    uint64
	Throttled uint64
}

// profileState is a Profile plus its live counters.
type profileState struct {
	p Profile

	mu    sync.Mutex
	count uint64 // total queries seen (windows match against this)
	seq   map[dnswire.Name]uint64
	stats Stats
	// token bucket
	tokens    float64
	lastPoll  time.Time
	primedLim bool
}

// Injector decides, per query, which fault the profiles inject. Create
// one with New; it is safe for concurrent use.
type Injector struct {
	clock    simclock.Clock
	seed     int64
	profiles []*profileState
}

// New creates an injector over clock with the given seed and profiles.
func New(clock simclock.Clock, seed int64, profiles ...Profile) *Injector {
	if clock == nil {
		clock = simclock.Real{}
	}
	inj := &Injector{clock: clock, seed: seed}
	for _, p := range profiles {
		inj.profiles = append(inj.profiles, &profileState{
			p:   p,
			seq: make(map[dnswire.Name]uint64),
		})
	}
	return inj
}

// Wrap returns a Handler that injects faults in front of inner.
// Injectors compose: Wrap the result of another injector's Wrap to stack
// independent fault layers.
func (inj *Injector) Wrap(inner Handler) Handler {
	return &wrapped{inj: inj, inner: inner}
}

type wrapped struct {
	inj   *Injector
	inner Handler
}

// HandleQuery implements Handler.
func (w *wrapped) HandleQuery(query []byte) []byte {
	msg, err := dnswire.Unmarshal(query)
	if err != nil || msg.Header.Response || len(msg.Questions) != 1 {
		// Not a query the injector understands: pass through untouched.
		return w.inner.HandleQuery(query)
	}
	out, delay := w.inj.Decide(msg.Questions[0].Name)
	w.inj.sleep(delay)
	switch out {
	case OutcomeDrop:
		return nil
	case OutcomeServFail:
		return marshalRCode(msg, dnswire.RCodeServFail)
	case OutcomeRefused:
		return marshalRCode(msg, dnswire.RCodeRefused)
	}
	return w.inner.HandleQuery(query)
}

// Decide is the injector's verdict on one query for name, plus the delay
// to put before answering it. The most specific profile governing name
// draws the verdict and counts the query; a name no profile governs
// passes.
func (inj *Injector) Decide(name dnswire.Name) (Outcome, time.Duration) {
	ps := inj.profileFor(name)
	if ps == nil {
		return OutcomePass, 0
	}
	return ps.decide(inj, name)
}

// profileFor returns the most specific profile whose prefix contains the
// IP encoded in the (reverse) question name, or nil. A profile over every
// address (a /0) governs every name, zone apexes and the other names that
// encode no address among them; the name is parsed only when a narrower
// profile could govern it.
func (inj *Injector) profileFor(name dnswire.Name) *profileState {
	var best *profileState
	var ip dnswire.IPv4
	var err error
	parsed := false
	for _, ps := range inj.profiles {
		if best != nil && ps.p.Prefix.Bits <= best.p.Prefix.Bits {
			continue
		}
		if ps.p.Prefix.Bits > 0 {
			if !parsed {
				ip, err = dnswire.ParseReverseName(name)
				parsed = true
			}
			if err != nil || !ps.p.Prefix.Contains(ip) {
				continue
			}
		}
		best = ps
	}
	return best
}

// decide classifies one query under the profile. Window checks run before
// hash-based rates, and drops before answer rewrites, so a flap window
// masks the steady-state loss rate rather than compounding with it.
func (ps *profileState) decide(inj *Injector, name dnswire.Name) (Outcome, time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := ps.count
	ps.count++
	attempt := ps.seq[name]
	ps.seq[name] = attempt + 1
	ps.stats.Queries++

	if ps.p.Drop.match(n) {
		ps.stats.Dropped++
		return OutcomeDrop, 0
	}
	if ps.p.ServFail.match(n) {
		ps.stats.ServFails++
		return OutcomeServFail, 0
	}
	if ps.throttledLocked(inj.clock) {
		ps.stats.Throttled++
		if ps.p.Limit.Refuse {
			ps.stats.Refused++
			return OutcomeRefused, 0
		}
		ps.stats.Dropped++
		return OutcomeDrop, 0
	}

	out, h := ps.p.sampleHash(telemetry.Mix64(uint64(inj.seed), nameHash(name), attempt))
	switch out {
	case OutcomeDrop:
		ps.stats.Dropped++
		return out, 0
	case OutcomeServFail:
		ps.stats.ServFails++
		return out, ps.p.Latency
	case OutcomeRefused:
		ps.stats.Refused++
		return out, ps.p.Latency
	}
	delay := ps.p.Latency
	h = telemetry.Mix64(h, 0x51CE)
	if ps.p.SpikeRate > 0 && telemetry.UnitFloat(h) < ps.p.SpikeRate {
		ps.stats.Spiked++
		delay += ps.p.SpikeLatency
	}
	return OutcomePass, delay
}

// throttledLocked consults the token bucket; caller holds ps.mu.
func (ps *profileState) throttledLocked(clock simclock.Clock) bool {
	l := ps.p.Limit
	if l == nil || l.QPS <= 0 {
		return false
	}
	now := clock.Now()
	burst := float64(l.Burst)
	if burst < 1 {
		burst = 1
	}
	if !ps.primedLim {
		ps.primedLim = true
		ps.lastPoll = now
		ps.tokens = burst
	}
	ps.tokens += now.Sub(ps.lastPoll).Seconds() * float64(l.QPS)
	ps.lastPoll = now
	if ps.tokens > burst {
		ps.tokens = burst
	}
	if ps.tokens < 1 {
		return true
	}
	ps.tokens--
	return false
}

// sleep blocks for d on the injector's clock.
func (inj *Injector) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	t := inj.clock.AfterFunc(d, func() { close(done) })
	defer t.Stop()
	<-done
}

// marshalRCode synthesizes a minimal response to query with the given
// rcode.
func marshalRCode(query *dnswire.Message, rcode dnswire.RCode) []byte {
	wire, err := dnswire.NewResponse(query, rcode).Marshal()
	if err != nil {
		return nil
	}
	return wire
}

// nameHash is FNV-1a over the name bytes.
func nameHash(n dnswire.Name) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(n); i++ {
		h ^= uint64(n[i])
		h *= 1099511628211
	}
	return h
}
