// Package fabric provides the virtual Internet over which every measurement
// in this repository travels.
//
// The fabric is an in-process packet network with IPv4 addressing. It
// carries two kinds of traffic: UDP-like datagrams (used for DNS and DHCP)
// and ICMP echo (used by the zmap-style prober). Delivery is scheduled on a
// simclock.Clock, so entire multi-month measurement campaigns can run
// deterministically on a simulated clock, while the same servers also work
// in real time.
//
// The fabric replaces the real Internet between the paper's measurement
// vantage and the networks it studied. Crucially, everything that crosses it
// is a real encoded wire message (see internal/dnswire, internal/dhcpwire,
// internal/icmp); the fabric itself only moves opaque payloads, exactly like
// the IP layer underneath the authors' scanners.
package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// Addr is a UDP-like endpoint address on the fabric.
type Addr struct {
	IP   dnswire.IPv4
	Port uint16
}

// String returns ip:port notation.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// Datagram is a UDP-like packet in flight.
type Datagram struct {
	Src     Addr
	Dst     Addr
	Payload []byte
	// Corr is the cross-layer correlation ID of the probe this packet
	// belongs to (telemetry.CorrID), zero for uncorrelated traffic. It is
	// fabric metadata, not wire bytes: the in-process network can carry it
	// out of band the way a real capture pipeline keys on 5-tuple + time.
	Corr uint64
}

// Handler receives datagrams delivered to an endpoint. Handlers run on the
// clock's callback goroutine; they must not block on future clock time.
type Handler func(dg Datagram)

// ICMPHandler receives ICMP payloads delivered to an address or prefix.
type ICMPHandler func(src, dst dnswire.IPv4, payload []byte)

// Config tunes fabric behaviour.
type Config struct {
	// Latency is the one-way delivery delay. Zero means deliver on the
	// next clock advance (still asynchronously).
	Latency time.Duration
	// Jitter adds up to this much random extra delay per packet.
	Jitter time.Duration
	// LossRate drops this fraction of packets (0..1), using the seeded
	// PRNG, to exercise timeout paths.
	LossRate float64
	// Seed seeds the fabric's PRNG (loss and jitter).
	Seed int64
}

// Fabric is the packet network. Create one with New.
type Fabric struct {
	clock simclock.Clock
	cfg   Config

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[Addr]*Endpoint
	icmpExact map[dnswire.IPv4]ICMPHandler
	icmpPfx   []prefixHandler // sorted longest-prefix-first
	stats     Stats
	tracer    *telemetry.Tracer
}

// Hop-span event codes (kind "hop"): what the fabric did with one
// correlated datagram. A span covers one packet's flight; its events are
// "send" at transmission plus the terminal outcome.
const (
	HopSend    = 1 // entered the fabric
	HopDeliver = 2 // handed to the destination endpoint
	HopDrop    = 3 // lost to the seeded loss model at send time
	HopVanish  = 4 // destination unbound at delivery time
)

type prefixHandler struct {
	prefix  dnswire.Prefix
	handler ICMPHandler
}

// Stats counts fabric traffic, for experiment accounting.
type Stats struct {
	DatagramsSent      uint64
	DatagramsDelivered uint64
	DatagramsDropped   uint64
	ICMPSent           uint64
	ICMPDelivered      uint64
	ICMPDropped        uint64
}

// New creates a fabric scheduled on clock.
func New(clock simclock.Clock, cfg Config) *Fabric {
	return &Fabric{
		clock:     clock,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: make(map[Addr]*Endpoint),
		icmpExact: make(map[dnswire.IPv4]ICMPHandler),
	}
}

// Clock returns the clock the fabric schedules on.
func (f *Fabric) Clock() simclock.Clock { return f.clock }

// SetTracer makes the fabric emit one "hop" span per correlated datagram
// (Datagram.Corr != 0): a "send" event when the packet enters the fabric
// and a terminal "deliver"/"drop"/"vanish" event when its fate is known.
// Uncorrelated traffic is never traced. nil detaches.
func (f *Fabric) SetTracer(tr *telemetry.Tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = tr
}

// Stats returns a snapshot of traffic counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// ErrAddrInUse reports a Bind collision.
var ErrAddrInUse = errors.New("fabric: address already bound")

// ErrClosed reports use of a closed endpoint.
var ErrClosed = errors.New("fabric: endpoint closed")

// Bind attaches a handler to addr and returns the endpoint.
func (f *Fabric) Bind(addr Addr, h Handler) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	ep := &Endpoint{fabric: f, addr: addr, handler: h}
	f.endpoints[addr] = ep
	return ep, nil
}

// BindICMP attaches an ICMP handler to a single address (e.g. the prober's
// vantage address, which receives echo replies).
func (f *Fabric) BindICMP(ip dnswire.IPv4, h ICMPHandler) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.icmpExact[ip]; ok {
		return fmt.Errorf("%w: icmp %s", ErrAddrInUse, ip)
	}
	f.icmpExact[ip] = h
	return nil
}

// RegisterICMPPrefix routes ICMP for every address in prefix to h (e.g. a
// simulated network deciding which of its hosts answer pings). The
// longest matching prefix wins; exact BindICMP bindings take precedence.
func (f *Fabric) RegisterICMPPrefix(prefix dnswire.Prefix, h ICMPHandler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.icmpPfx = append(f.icmpPfx, prefixHandler{prefix, h})
	sort.SliceStable(f.icmpPfx, func(i, j int) bool {
		return f.icmpPfx[i].prefix.Bits > f.icmpPfx[j].prefix.Bits
	})
}

// SendICMP injects an ICMP payload from src toward dst. Delivery is subject
// to the fabric's latency and loss model. Undeliverable packets (no handler
// for dst) vanish, as on the real Internet.
func (f *Fabric) SendICMP(src, dst dnswire.IPv4, payload []byte) {
	f.mu.Lock()
	f.stats.ICMPSent++
	if f.dropLocked() {
		f.stats.ICMPDropped++
		f.mu.Unlock()
		return
	}
	delay := f.delayLocked()
	f.mu.Unlock()

	p := append([]byte(nil), payload...)
	f.clock.AfterFunc(delay, func() {
		h := f.lookupICMP(dst)
		if h == nil {
			return
		}
		f.mu.Lock()
		f.stats.ICMPDelivered++
		f.mu.Unlock()
		h(src, dst, p)
	})
}

func (f *Fabric) lookupICMP(dst dnswire.IPv4) ICMPHandler {
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.icmpExact[dst]; ok {
		return h
	}
	for _, ph := range f.icmpPfx {
		if ph.prefix.Contains(dst) {
			return ph.handler
		}
	}
	return nil
}

// dropLocked and delayLocked must be called with f.mu held.
func (f *Fabric) dropLocked() bool {
	return f.cfg.LossRate > 0 && f.rng.Float64() < f.cfg.LossRate
}

func (f *Fabric) delayLocked() time.Duration {
	d := f.cfg.Latency
	if f.cfg.Jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(f.cfg.Jitter)))
	}
	return d
}

// addrKey folds an address into one span-ID key word.
func addrKey(a Addr) uint64 {
	return uint64(a.IP[0])<<40 | uint64(a.IP[1])<<32 | uint64(a.IP[2])<<24 |
		uint64(a.IP[3])<<16 | uint64(a.Port)
}

// send routes a datagram. Packets to unbound addresses vanish.
func (f *Fabric) send(dg Datagram) {
	f.mu.Lock()
	f.stats.DatagramsSent++
	tr := f.tracer
	dropped := f.dropLocked()
	if dropped {
		f.stats.DatagramsDropped++
	}
	var delay time.Duration
	if !dropped {
		delay = f.delayLocked()
	}
	f.mu.Unlock()

	// One hop span per correlated packet: ID keyed by (corr, src, dst) so
	// the query leg and the reply leg of the same probe get distinct but
	// deterministic spans sharing Corr. Nil span when untraced — all calls
	// below no-op.
	var sp *telemetry.Span
	if tr != nil && dg.Corr != 0 {
		sp = tr.StartSpanCorr("hop", dg.Src.String()+">"+dg.Dst.String(),
			dg.Corr, addrKey(dg.Src), addrKey(dg.Dst))
		sp.Event("hop", HopSend)
	}
	if dropped {
		sp.Event("hop", HopDrop)
		sp.End()
		return
	}

	payload := append([]byte(nil), dg.Payload...)
	f.clock.AfterFunc(delay, func() {
		f.mu.Lock()
		ep, ok := f.endpoints[dg.Dst]
		if ok {
			f.stats.DatagramsDelivered++
		}
		f.mu.Unlock()
		if !ok {
			sp.Event("hop", HopVanish)
			sp.End()
			return
		}
		sp.Event("hop", HopDeliver)
		sp.End()
		ep.deliver(Datagram{Src: dg.Src, Dst: dg.Dst, Payload: payload, Corr: dg.Corr})
	})
}

// Endpoint is a bound UDP-like socket on the fabric.
type Endpoint struct {
	fabric  *Fabric
	addr    Addr
	handler Handler

	mu     sync.Mutex
	closed bool
}

// Send transmits payload to dst with ep's address as the source.
func (ep *Endpoint) Send(dst Addr, payload []byte) error {
	return ep.SendCorr(dst, payload, 0)
}

// SendCorr transmits payload carrying the correlation ID of the probe it
// belongs to, so the fabric's hop spans and the receiver can join this
// packet to its client attempt. corr zero sends uncorrelated.
func (ep *Endpoint) SendCorr(dst Addr, payload []byte, corr uint64) error {
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return ErrClosed
	}
	ep.fabric.send(Datagram{Src: ep.addr, Dst: dst, Payload: payload, Corr: corr})
	return nil
}

// Close unbinds the endpoint. In-flight packets to it are dropped on
// delivery.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.closed = true
	ep.mu.Unlock()
	ep.fabric.mu.Lock()
	delete(ep.fabric.endpoints, ep.addr)
	ep.fabric.mu.Unlock()
	return nil
}

func (ep *Endpoint) deliver(dg Datagram) {
	ep.mu.Lock()
	closed := ep.closed
	h := ep.handler
	ep.mu.Unlock()
	if closed || h == nil {
		return
	}
	h(dg)
}
