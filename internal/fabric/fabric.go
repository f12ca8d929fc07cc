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
//
// A packet in flight is a slot in the fabric's slab and one AfterDeliver
// call on the clock, with the fabric as the sink and the slot as the
// argument: sending copies the payload into the slot's reused buffer, and
// delivery lends the handler that buffer. Handlers therefore must not keep
// a payload, or anything sliced from it, past their return: once it has
// returned the slot goes back to the slab, and a later packet overwrites
// its bytes.
package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
// clock's callback goroutine; they must not block on future clock time,
// and must not keep dg.Payload past their return.
type Handler func(dg Datagram)

// ICMPHandler receives ICMP payloads delivered to an address or prefix. It
// must not keep payload past its return.
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
	icmpPfx   []*prefixHandler       // sorted longest-prefix-first
	icmp24    map[uint32]ICMPHandler // see rebuildICMP24Locked
	slab      []packet               // by slot; see scheduleLocked
	free      []uint32               // free slots below fresh
	fresh     uint32                 // slots from fresh up are free
	flying    int                    // slots not free
	stats     Stats
	tracer    *telemetry.Tracer
}

// packet is one slab slot: a packet in flight, or a free slot keeping its
// payload buffer for the next packet.
type packet struct {
	icmp     bool
	src, dst Addr // Port is zero for ICMP
	corr     uint64
	span     *telemetry.Span // a traced datagram's hop span
	payload  []byte
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
		icmp24:    make(map[uint32]ICMPHandler),
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
// simulated network deciding which of its hosts answer pings) until the
// returned func unregisters it. The longest matching prefix wins, the
// earlier registration among equal ones; exact BindICMP bindings take
// precedence.
func (f *Fabric) RegisterICMPPrefix(prefix dnswire.Prefix, h ICMPHandler) (unregister func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ph := &prefixHandler{prefix, h}
	f.icmpPfx = append(f.icmpPfx, ph)
	sort.SliceStable(f.icmpPfx, func(i, j int) bool {
		return f.icmpPfx[i].prefix.Bits > f.icmpPfx[j].prefix.Bits
	})
	f.rebuildICMP24Locked()
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.icmpPfx = slices.DeleteFunc(f.icmpPfx, func(q *prefixHandler) bool { return q == ph })
		f.rebuildICMP24Locked()
	}
}

// minTableBits is the shortest prefix icmp24 takes: a /16 is 256 rows, and
// anything shorter is left to the walk over icmpPfx.
const minTableBits = 16

func slash24(ip dnswire.IPv4) uint32 {
	return uint32(ip[0])<<16 | uint32(ip[1])<<8 | uint32(ip[2])
}

// rebuildICMP24Locked maps each /24 inside a registered /16 to /24 to the
// handler of the longest such prefix covering it. Shorter prefixes are
// shorter than any of those, so they cannot beat a row; a prefix longer
// than /24 can, for part of its /24, so that /24 gets no row. An address
// without a row takes the walk over icmpPfx, which is always right.
func (f *Fabric) rebuildICMP24Locked() {
	clear(f.icmp24)
	for _, ph := range f.icmpPfx { // longest first
		p := ph.prefix
		if p.Bits < minTableBits || p.Bits > 24 {
			continue
		}
		first := slash24(p.Addr)
		for k := first; k < first+1<<(24-p.Bits); k++ {
			if _, ok := f.icmp24[k]; !ok {
				f.icmp24[k] = ph.handler
			}
		}
	}
	for _, ph := range f.icmpPfx {
		if ph.prefix.Bits > 24 {
			delete(f.icmp24, slash24(ph.prefix.Addr))
		}
	}
}

// SendICMP injects an ICMP payload from src toward dst. Delivery is subject
// to the fabric's latency and loss model. Undeliverable packets (no handler
// for dst when they arrive) vanish, as on the real Internet.
func (f *Fabric) SendICMP(src, dst dnswire.IPv4, payload []byte) {
	f.mu.Lock()
	f.stats.ICMPSent++
	if f.dropLocked() {
		f.stats.ICMPDropped++
	} else {
		f.scheduleLocked(packet{icmp: true, src: Addr{IP: src}, dst: Addr{IP: dst}}, payload)
	}
	f.mu.Unlock()
}

// lookupICMPLocked resolves the handler for an ICMP packet to dst.
func (f *Fabric) lookupICMPLocked(dst dnswire.IPv4) ICMPHandler {
	if h, ok := f.icmpExact[dst]; ok {
		return h
	}
	if h, ok := f.icmp24[slash24(dst)]; ok {
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

// scheduleLocked draws p's delay, puts it in a free slot with a copy of
// payload, and schedules its delivery. Whenever nothing is in flight the
// slots are taken in slab order again, so a burst of packets sent together
// (a sweep) fills the slab front to back rather than in the order the last
// burst arrived.
func (f *Fabric) scheduleLocked(p packet, payload []byte) {
	delay := f.delayLocked()
	var slot uint32
	if n := len(f.free); n > 0 {
		slot = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		slot = f.fresh
		f.fresh++
		if int(slot) == len(f.slab) {
			f.slab = append(f.slab, packet{})
		}
	}
	f.flying++
	s := &f.slab[slot]
	// Field by field: a whole-struct copy is a typed memmove.
	s.icmp, s.src, s.dst, s.corr, s.span = p.icmp, p.src, p.dst, p.corr, p.span
	s.payload = append(s.payload[:0], payload...)
	f.clock.AfterDeliver(delay, f, uint64(slot))
}

// releaseLocked returns slot to the slab, keeping its buffer.
func (f *Fabric) releaseLocked(slot uint32) {
	f.slab[slot].span = nil
	if f.flying--; f.flying == 0 {
		f.free, f.fresh = f.free[:0], 0
	} else {
		f.free = append(f.free, slot)
	}
}

// Deliver implements simclock.Sink: the packet in the slot arrives. The
// destination is resolved now, so a packet to an endpoint closed or a
// prefix unregistered while it was in flight vanishes. The handler runs
// outside the lock on the slot's buffer, and the slot goes back to the
// slab when it returns: on a real clock deliveries run concurrently with
// each other and with sends, so the slot cannot be freed any earlier.
func (f *Fabric) Deliver(arg uint64) {
	slot := uint32(arg)
	f.mu.Lock()
	p := f.slab[slot]
	var (
		h  ICMPHandler
		ep *Endpoint
	)
	if p.icmp {
		if h = f.lookupICMPLocked(p.dst.IP); h != nil {
			f.stats.ICMPDelivered++
		}
	} else if ep = f.endpoints[p.dst]; ep != nil {
		f.stats.DatagramsDelivered++
	}
	if h == nil && ep == nil {
		f.releaseLocked(slot)
		f.mu.Unlock()
		p.span.Event("hop", HopVanish)
		p.span.End()
		return
	}
	f.mu.Unlock()

	if p.icmp {
		h(p.src.IP, p.dst.IP, p.payload)
	} else {
		p.span.Event("hop", HopDeliver)
		p.span.End()
		if ep.handler != nil {
			ep.handler(Datagram{Src: p.src, Dst: p.dst, Payload: p.payload, Corr: p.corr})
		}
	}
	f.mu.Lock()
	f.releaseLocked(slot)
	f.mu.Unlock()
}

// addrKey folds an address into one span-ID key word.
func addrKey(a Addr) uint64 {
	return uint64(a.IP[0])<<40 | uint64(a.IP[1])<<32 | uint64(a.IP[2])<<24 |
		uint64(a.IP[3])<<16 | uint64(a.Port)
}

// send routes a datagram from ep. Packets to unbound addresses vanish.
func (f *Fabric) send(ep *Endpoint, dst Addr, payload []byte, corr uint64) error {
	f.mu.Lock()
	if ep.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.stats.DatagramsSent++
	dropped := f.dropLocked()
	if dropped {
		f.stats.DatagramsDropped++
	}
	// One hop span per correlated packet: ID keyed by (corr, src, dst) so
	// the query leg and the reply leg of the same probe get distinct but
	// deterministic spans sharing Corr. Nil span when untraced — all calls
	// on it no-op.
	var sp *telemetry.Span
	if f.tracer != nil && corr != 0 {
		sp = f.tracer.StartSpanCorr("hop", ep.addr.String()+">"+dst.String(),
			corr, addrKey(ep.addr), addrKey(dst))
		sp.Event("hop", HopSend)
	}
	if !dropped {
		f.scheduleLocked(packet{src: ep.addr, dst: dst, corr: corr, span: sp}, payload)
	}
	f.mu.Unlock()
	if dropped {
		sp.Event("hop", HopDrop)
		sp.End()
	}
	return nil
}

// Endpoint is a bound UDP-like socket on the fabric.
type Endpoint struct {
	fabric  *Fabric
	addr    Addr
	handler Handler
	closed  bool // guarded by fabric.mu
}

// Send transmits payload to dst with ep's address as the source.
func (ep *Endpoint) Send(dst Addr, payload []byte) error {
	return ep.SendCorr(dst, payload, 0)
}

// SendCorr transmits payload carrying the correlation ID of the probe it
// belongs to, so the fabric's hop spans and the receiver can join this
// packet to its client attempt. corr zero sends uncorrelated.
func (ep *Endpoint) SendCorr(dst Addr, payload []byte, corr uint64) error {
	return ep.fabric.send(ep, dst, payload, corr)
}

// Close unbinds the endpoint. In-flight packets to it are dropped on
// delivery.
func (ep *Endpoint) Close() error {
	f := ep.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if ep.closed {
		return ErrClosed
	}
	ep.closed = true
	delete(f.endpoints, ep.addr)
	return nil
}
