package icmp

import (
	"fmt"
	"sync"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
)

// ProbeResult is the outcome of a single echo probe.
type ProbeResult struct {
	// Target is the probed address.
	Target dnswire.IPv4
	// Alive reports whether an echo reply arrived before the timeout.
	Alive bool
	// RTT is the round-trip time for replies; zero otherwise.
	RTT time.Duration
	// Sent is when the request was transmitted.
	Sent time.Time
}

// ProberConfig tunes a Prober.
type ProberConfig struct {
	// Vantage is the source address probes are sent from.
	Vantage dnswire.IPv4
	// Timeout is how long to wait for a reply. Default 2s.
	Timeout time.Duration
	// RatePerSecond caps transmitted probes per second (token bucket).
	// Zero means unlimited.
	RatePerSecond int
	// ID is the ICMP identifier stamped on every probe.
	ID uint16
	// Blocklist suppresses probes to opted-out address space; targets in
	// it resolve immediately as not alive, without traffic.
	Blocklist []dnswire.Prefix
}

// Prober sends ICMP echo probes over a fabric and matches replies to
// requests, zmap-style. Create one with NewProber; it binds the vantage
// address for ICMP delivery.
//
// Probes in flight sit in one window ordered by transmission. Timeout is
// the same for every probe and the clock never runs backwards, so that is
// also the order their deadlines fall in: one clock timer, armed for the
// oldest probe still waiting, times all of them out.
type Prober struct {
	fab   *fabric.Fabric
	clock simclock.Clock
	cfg   ProberConfig
	fire  func() // p.onTimer

	mu sync.Mutex
	// The window holds the probes numbered [head, next) by transmission,
	// each in ring[number & (len(ring)-1)]; a probe's wire sequence number
	// is the low 16 bits of its number, so the window never spans more
	// than seqSpace of them. live counts those still waiting for a reply
	// or their deadline; the ones before head have all completed.
	ring       []inflight
	head, next uint64
	live       int
	// timer is armed whenever live > 0, for the deadline of a probe at or
	// before the oldest one waiting — never later.
	timer     simclock.Timer
	nextSlot  time.Time
	sent      uint64
	received  uint64
	blocked   uint64
	malformed uint64
}

// seqSpace is how many probes the 16-bit wire sequence number tells apart.
const seqSpace = 1 << 16

// inflight is one transmitted probe, waiting until a reply, its deadline or
// a newer probe taking its sequence number completes it.
type inflight struct {
	target  dnswire.IPv4
	waiting bool
	sent    time.Time
	done    func(ProbeResult)
}

// ProberStats counts prober activity.
type ProberStats struct {
	Sent      uint64
	Received  uint64
	Blocked   uint64
	Malformed uint64
}

// NewProber creates a prober and binds its vantage address on the fabric.
func NewProber(fab *fabric.Fabric, cfg ProberConfig) (*Prober, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	p := &Prober{
		fab:   fab,
		clock: fab.Clock(),
		cfg:   cfg,
		ring:  make([]inflight, 64),
		// Numbering starts at 1 so the first wire sequence number is 1.
		head: 1,
		next: 1,
	}
	p.fire = p.onTimer
	if err := fab.BindICMP(cfg.Vantage, p.handleICMP); err != nil {
		return nil, fmt.Errorf("icmp: binding vantage: %w", err)
	}
	return p, nil
}

// Stats returns a snapshot of prober counters.
func (p *Prober) Stats() ProberStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProberStats{Sent: p.sent, Received: p.received, Blocked: p.blocked, Malformed: p.malformed}
}

// Probe sends one echo request to target and calls done exactly once, either
// with the reply or with Alive=false after the timeout. Rate limiting delays
// transmission as needed; blocklisted targets complete immediately.
func (p *Prober) Probe(target dnswire.IPv4, done func(ProbeResult)) {
	for _, pfx := range p.cfg.Blocklist {
		if pfx.Contains(target) {
			p.mu.Lock()
			p.blocked++
			p.mu.Unlock()
			done(ProbeResult{Target: target, Alive: false, Sent: p.clock.Now()})
			return
		}
	}
	delay := p.reserveSlot()
	if delay <= 0 {
		p.transmit(target, done)
		return
	}
	p.clock.AfterFunc(delay, func() { p.transmit(target, done) })
}

// reserveSlot implements the token bucket: it returns how long the caller
// must wait before transmitting.
func (p *Prober) reserveSlot() time.Duration {
	if p.cfg.RatePerSecond <= 0 {
		return 0
	}
	interval := time.Second / time.Duration(p.cfg.RatePerSecond)
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	if p.nextSlot.Before(now) {
		p.nextSlot = now
	}
	wait := p.nextSlot.Sub(now)
	p.nextSlot = p.nextSlot.Add(interval)
	return wait
}

func (p *Prober) slot(n uint64) *inflight { return &p.ring[n&uint64(len(p.ring)-1)] }

// complete takes probe n out of the set still waiting and returns it. The
// caller holds p.mu and calls the probe's done after releasing it.
func (p *Prober) complete(n uint64) inflight {
	s := p.slot(n)
	probe := *s
	s.waiting, s.done = false, nil
	p.live--
	return probe
}

func (p *Prober) transmit(target dnswire.IPv4, done func(ProbeResult)) {
	p.mu.Lock()
	// The wire sequence space is 16 bits; with seqSpace probes in the
	// window the new one takes the oldest one's number. Fail the displaced
	// probe as lost rather than leaking its completion callback.
	var displaced inflight
	if p.next-p.head == seqSpace {
		if p.slot(p.head).waiting {
			displaced = p.complete(p.head)
		}
		p.head++
	}
	if int(p.next-p.head) == len(p.ring) {
		grown := make([]inflight, 2*len(p.ring))
		for n := p.head; n < p.next; n++ {
			grown[n&uint64(len(grown)-1)] = *p.slot(n)
		}
		p.ring = grown
	}
	seq := uint16(p.next)
	now := p.clock.Now()
	*p.slot(p.next) = inflight{target: target, waiting: true, sent: now, done: done}
	p.next++
	p.live++
	p.sent++
	p.mu.Unlock()
	if displaced.waiting {
		displaced.done(ProbeResult{Target: displaced.target, Alive: false, Sent: displaced.sent})
	}

	var buf [8]byte
	p.fab.SendICMP(p.cfg.Vantage, target, Echo{ID: p.cfg.ID, Seq: seq}.AppendTo(buf[:0]))

	// The timer goes on the clock after the request: the clock runs what
	// falls on one instant in scheduling order, and the seeded runs are
	// pinned to the request's delivery coming first.
	p.mu.Lock()
	if p.timer == nil && p.live > 0 {
		p.armLocked(now)
	}
	p.mu.Unlock()
}

// oldestDeadline returns when the oldest probe still waiting times out,
// moving head up to it. The caller holds p.mu and has checked p.live > 0.
func (p *Prober) oldestDeadline() time.Time {
	for !p.slot(p.head).waiting {
		p.head++
	}
	return p.slot(p.head).sent.Add(p.cfg.Timeout)
}

// armLocked arms the timer for the oldest probe still waiting. The caller
// holds p.mu and has checked p.live > 0.
func (p *Prober) armLocked(now time.Time) {
	p.timer = p.clock.AfterFunc(p.oldestDeadline().Sub(now), p.fire)
}

// expire fails, oldest first, every probe whose deadline is at or before
// now.
func (p *Prober) expire(now time.Time) {
	for {
		p.mu.Lock()
		if p.live == 0 {
			p.head = p.next
			p.mu.Unlock()
			return
		}
		if p.oldestDeadline().After(now) {
			p.mu.Unlock()
			return
		}
		probe := p.complete(p.head)
		p.mu.Unlock()
		probe.done(ProbeResult{Target: probe.target, Alive: false, Sent: probe.sent})
	}
}

func (p *Prober) onTimer() {
	now := p.clock.Now()
	p.expire(now)
	p.mu.Lock()
	// On a real clock a newer timer may have been armed while this one
	// waited for p.mu; keep one.
	p.disarmLocked()
	if p.live > 0 {
		p.armLocked(now)
	}
	p.mu.Unlock()
}

func (p *Prober) disarmLocked() {
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
}

func (p *Prober) handleICMP(src, _ dnswire.IPv4, payload []byte) {
	echo, err := Parse(payload)
	if err != nil || !echo.Reply || echo.ID != p.cfg.ID {
		p.mu.Lock()
		p.malformed++
		p.mu.Unlock()
		return
	}
	// A reply that arrives at the very instant of its probe's deadline has
	// lost: the deadline was set first. Expiring here keeps that true
	// whichever of this delivery and the timer the clock runs first.
	now := p.clock.Now()
	p.expire(now)
	p.mu.Lock()
	n := p.head + uint64(echo.Seq-uint16(p.head))
	if n >= p.next || !p.slot(n).waiting || p.slot(n).target != src {
		p.mu.Unlock()
		return
	}
	probe := p.complete(n)
	p.received++
	if p.live == 0 {
		p.disarmLocked()
		p.head = p.next
	}
	p.mu.Unlock()
	probe.done(ProbeResult{Target: src, Alive: true, RTT: now.Sub(probe.sent), Sent: probe.sent})
}

// Responder answers echo requests for hosts that an AliveFunc reports as
// online. Simulated networks register one per prefix on the fabric; this is
// where "does the operator block ICMP on ingress" and "is the device
// currently on the network" are decided.
type Responder struct {
	fab *fabric.Fabric
	// Alive reports whether the host at ip currently answers pings.
	Alive func(ip dnswire.IPv4) bool
	// BlockIngress simulates an operator dropping all inbound ICMP, as
	// two of the nine networks in the paper do (Section 6.2).
	BlockIngress bool
}

// NewResponder registers a Responder for prefix on fab.
func NewResponder(fab *fabric.Fabric, prefix dnswire.Prefix, alive func(dnswire.IPv4) bool, blockIngress bool) *Responder {
	r := &Responder{fab: fab, Alive: alive, BlockIngress: blockIngress}
	fab.RegisterICMPPrefix(prefix, r.handle)
	return r
}

func (r *Responder) handle(src, dst dnswire.IPv4, payload []byte) {
	if r.BlockIngress {
		return
	}
	echo, err := Parse(payload)
	if err != nil || echo.Reply {
		return
	}
	if r.Alive == nil || !r.Alive(dst) {
		return
	}
	var buf [8]byte
	r.fab.SendICMP(dst, src, ReplyTo(echo).AppendTo(buf[:0]))
}
