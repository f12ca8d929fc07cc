// Package dhcp implements a DHCPv4 server and client state machine.
//
// This is the network-operator substrate at the root of the leak the paper
// studies: clients announce a Host Name (or Client FQDN) when they request a
// lease, the server allocates an address, and lease lifecycle events —
// granted, renewed, released, expired — are emitted to an IPAM policy engine
// (internal/ipam) which may publish the client identifier in the global
// reverse DNS.
//
// DHCP runs on the local network segment; the paper's outside observer never
// sees it (that is precisely why the rDNS side channel matters). The
// exchange therefore runs over a synchronous in-network path rather than the
// Internet fabric, but every message is still a fully encoded RFC 2131
// packet passed through internal/dhcpwire.
package dhcp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

// EventKind classifies lease lifecycle events.
type EventKind int

// Lease lifecycle events.
const (
	// LeaseGranted is a new allocation (DISCOVER/REQUEST → ACK).
	LeaseGranted EventKind = iota
	// LeaseRenewed is a renewal of an existing allocation.
	LeaseRenewed
	// LeaseReleased is an explicit client release (the client "cleanly
	// leaves" the network, in the paper's phrasing).
	LeaseReleased
	// LeaseExpired is a server-side expiry: the client vanished without
	// releasing (out of range, unplugged).
	LeaseExpired
)

// String returns a mnemonic.
func (k EventKind) String() string {
	switch k {
	case LeaseGranted:
		return "granted"
	case LeaseRenewed:
		return "renewed"
	case LeaseReleased:
		return "released"
	case LeaseExpired:
		return "expired"
	default:
		return fmt.Sprintf("event%d", int(k))
	}
}

// Event is a lease lifecycle notification delivered to the IPAM layer.
type Event struct {
	Kind EventKind
	// IP is the leased address.
	IP dnswire.IPv4
	// HostName is the client's Host Name option, "" if none was sent.
	HostName string
	// ClientFQDN is the client's FQDN option, nil if none was sent.
	ClientFQDN *dhcpwire.ClientFQDN
	// CHAddr is the client hardware address.
	CHAddr dhcpwire.HardwareAddr
	// At is when the event occurred.
	At time.Time
	// LeaseDuration is the granted lease time (Granted/Renewed).
	LeaseDuration time.Duration
}

// EventSink receives lease lifecycle events. internal/ipam implements it.
type EventSink interface {
	LeaseEvent(Event)
}

// EventSinkFunc adapts a function to EventSink.
type EventSinkFunc func(Event)

// LeaseEvent implements EventSink.
func (f EventSinkFunc) LeaseEvent(ev Event) { f(ev) }

// ServerConfig configures a Server.
type ServerConfig struct {
	// ServerIP identifies the server (option 54).
	ServerIP dnswire.IPv4
	// Pools are the address ranges available for dynamic allocation.
	Pools []dnswire.Prefix
	// LeaseTime is the granted lease duration. The paper observes that
	// operators often set "an hour for a fast turn-over rate"
	// (Section 6.2); that is the default.
	LeaseTime time.Duration
	// Sink receives lease events; may be nil.
	Sink EventSink
}

// Lease is a current address allocation.
type Lease struct {
	IP         dnswire.IPv4
	CHAddr     dhcpwire.HardwareAddr
	HostName   string
	ClientFQDN *dhcpwire.ClientFQDN
	Expires    time.Time
}

// Server is a DHCPv4 server. Create one with NewServer.
type Server struct {
	clock simclock.Clock
	cfg   ServerConfig

	mu       sync.Mutex
	byIP     map[dnswire.IPv4]*leaseState
	byCH     map[dhcpwire.HardwareAddr]*leaseState
	sticky   map[dhcpwire.HardwareAddr]dnswire.IPv4
	poolIPs  []dnswire.IPv4
	nextScan int
	stats    ServerStats
}

type leaseState struct {
	lease Lease
	timer simclock.Timer
}

// ServerStats counts server activity.
type ServerStats struct {
	Discovers uint64
	Requests  uint64
	ACKs      uint64
	NAKs      uint64
	Releases  uint64
	Expiries  uint64
	Exhausted uint64
}

// Errors returned by the server.
var (
	ErrPoolExhausted = errors.New("dhcp: address pool exhausted")
	ErrMalformed     = errors.New("dhcp: malformed message")
	ErrNotForUs      = errors.New("dhcp: message addressed to another server")
)

// NewServer creates a server allocating from cfg.Pools on clock time.
func NewServer(clock simclock.Clock, cfg ServerConfig) *Server {
	if cfg.LeaseTime <= 0 {
		cfg.LeaseTime = time.Hour
	}
	s := &Server{
		clock:  clock,
		cfg:    cfg,
		byIP:   make(map[dnswire.IPv4]*leaseState),
		byCH:   make(map[dhcpwire.HardwareAddr]*leaseState),
		sticky: make(map[dhcpwire.HardwareAddr]dnswire.IPv4),
	}
	for _, p := range cfg.Pools {
		n := p.NumAddresses()
		for i := 0; i < n; i++ {
			ip := p.Nth(i)
			// Skip network/broadcast addresses of /24-or-shorter
			// pools and the server's own address.
			if ip == p.First() || ip == p.Last() || ip == cfg.ServerIP {
				continue
			}
			s.poolIPs = append(s.poolIPs, ip)
		}
	}
	return s
}

// Prebind seeds the server's sticky map so that a client is offered a
// specific address on its first DISCOVER. Network simulations use it to
// keep event-driven address allocation consistent with the deterministic
// device-to-address plan used for snapshot evaluation.
func (s *Server) Prebind(ch dhcpwire.HardwareAddr, ip dnswire.IPv4) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sticky[ch] = ip
}

// Receive processes one wire-format client message and appends the
// wire-format reply to reply, returning nil when the protocol calls for no
// reply (RELEASE). The server keeps neither buffer.
func (s *Server) Receive(buf, reply []byte) ([]byte, error) {
	msg, err := dhcpwire.Parse(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if msg.BootReply {
		return nil, fmt.Errorf("%w: reply received by server", ErrMalformed)
	}
	switch msg.Type {
	case dhcpwire.Discover:
		return s.handleDiscover(msg, reply)
	case dhcpwire.Request:
		return s.handleRequest(msg, reply)
	case dhcpwire.Release:
		s.handleRelease(msg)
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unsupported type %v", ErrMalformed, msg.Type)
	}
}

func (s *Server) handleDiscover(msg *dhcpwire.Message, reply []byte) ([]byte, error) {
	s.mu.Lock()
	s.stats.Discovers++
	ip, ok := s.pickAddressLocked(msg.CHAddr, msg.RequestedIP)
	if !ok {
		s.stats.Exhausted++
		s.mu.Unlock()
		return nil, ErrPoolExhausted
	}
	s.mu.Unlock()
	offer := &dhcpwire.Message{
		BootReply: true,
		XID:       msg.XID,
		YIAddr:    ip,
		SIAddr:    s.cfg.ServerIP,
		CHAddr:    msg.CHAddr,
		Type:      dhcpwire.Offer,
		LeaseTime: s.cfg.LeaseTime,
		ServerID:  s.cfg.ServerIP,
	}
	return offer.AppendTo(reply)
}

func (s *Server) handleRequest(msg *dhcpwire.Message, reply []byte) ([]byte, error) {
	if msg.ServerID != (dnswire.IPv4{}) && msg.ServerID != s.cfg.ServerIP {
		return nil, ErrNotForUs
	}
	want := msg.RequestedIP
	if want == (dnswire.IPv4{}) {
		// Renewal: the client puts its address in ciaddr.
		want = msg.CIAddr
	}
	now := s.clock.Now()

	s.mu.Lock()
	s.stats.Requests++
	existing, hasExisting := s.byCH[msg.CHAddr]
	renewal := hasExisting && existing.lease.IP == want
	if !renewal {
		// Fresh allocation; the address must be ours and free (or
		// held by the same client).
		if !s.inPoolLocked(want) || (s.byIP[want] != nil && s.byIP[want].lease.CHAddr != msg.CHAddr) {
			s.stats.NAKs++
			s.mu.Unlock()
			nak := &dhcpwire.Message{
				BootReply: true, XID: msg.XID, CHAddr: msg.CHAddr,
				Type: dhcpwire.NAK, ServerID: s.cfg.ServerIP,
			}
			return nak.AppendTo(reply)
		}
	}

	lease := Lease{
		IP:         want,
		CHAddr:     msg.CHAddr,
		HostName:   msg.HostName,
		ClientFQDN: msg.ClientFQDN,
		Expires:    now.Add(s.cfg.LeaseTime),
	}
	var old *leaseState
	if hasExisting && existing.lease.IP != want {
		// Client moved to a new address; drop the old lease silently.
		old = existing
		delete(s.byIP, existing.lease.IP)
	}
	ls := s.byIP[want]
	if ls == nil {
		ls = &leaseState{}
		s.byIP[want] = ls
	}
	if ls.timer != nil {
		ls.timer.Stop()
	}
	ls.lease = lease
	s.byCH[msg.CHAddr] = ls
	s.sticky[msg.CHAddr] = want
	ls.timer = s.scheduleExpiryLocked(want, lease.Expires)
	s.stats.ACKs++
	s.mu.Unlock()

	if old != nil && old.timer != nil {
		old.timer.Stop()
	}
	kind := LeaseGranted
	if renewal {
		kind = LeaseRenewed
	}
	s.emit(Event{
		Kind: kind, IP: want, HostName: msg.HostName,
		ClientFQDN: msg.ClientFQDN, CHAddr: msg.CHAddr,
		At: now, LeaseDuration: s.cfg.LeaseTime,
	})

	ack := &dhcpwire.Message{
		BootReply: true,
		XID:       msg.XID,
		YIAddr:    want,
		SIAddr:    s.cfg.ServerIP,
		CHAddr:    msg.CHAddr,
		Type:      dhcpwire.ACK,
		LeaseTime: s.cfg.LeaseTime,
		ServerID:  s.cfg.ServerIP,
	}
	return ack.AppendTo(reply)
}

func (s *Server) handleRelease(msg *dhcpwire.Message) {
	now := s.clock.Now()
	s.mu.Lock()
	ls, ok := s.byIP[msg.CIAddr]
	if !ok || ls.lease.CHAddr != msg.CHAddr {
		s.mu.Unlock()
		return
	}
	s.stats.Releases++
	lease := ls.lease
	s.removeLocked(ls)
	s.mu.Unlock()
	s.emit(Event{
		Kind: LeaseReleased, IP: lease.IP, HostName: lease.HostName,
		ClientFQDN: lease.ClientFQDN, CHAddr: lease.CHAddr, At: now,
	})
}

// removeLocked drops a lease from both indexes and stops its timer.
func (s *Server) removeLocked(ls *leaseState) {
	delete(s.byIP, ls.lease.IP)
	if cur, ok := s.byCH[ls.lease.CHAddr]; ok && cur == ls {
		delete(s.byCH, ls.lease.CHAddr)
	}
	if ls.timer != nil {
		ls.timer.Stop()
	}
}

func (s *Server) scheduleExpiryLocked(ip dnswire.IPv4, expires time.Time) simclock.Timer {
	return s.clock.AfterFunc(expires.Sub(s.clock.Now()), func() {
		s.mu.Lock()
		ls, ok := s.byIP[ip]
		if !ok || s.clock.Now().Before(ls.lease.Expires) {
			s.mu.Unlock()
			return
		}
		s.stats.Expiries++
		lease := ls.lease
		s.removeLocked(ls)
		s.mu.Unlock()
		s.emit(Event{
			Kind: LeaseExpired, IP: lease.IP, HostName: lease.HostName,
			ClientFQDN: lease.ClientFQDN, CHAddr: lease.CHAddr,
			At: s.clock.Now(),
		})
	})
}

// pickAddressLocked chooses an address for a client: its current lease,
// then its last (sticky) address, then its requested address, then the next
// free pool address.
func (s *Server) pickAddressLocked(ch dhcpwire.HardwareAddr, requested dnswire.IPv4) (dnswire.IPv4, bool) {
	if ls, ok := s.byCH[ch]; ok {
		return ls.lease.IP, true
	}
	if ip, ok := s.sticky[ch]; ok {
		if _, taken := s.byIP[ip]; !taken {
			return ip, true
		}
	}
	if requested != (dnswire.IPv4{}) && s.inPoolLocked(requested) {
		if _, taken := s.byIP[requested]; !taken {
			return requested, true
		}
	}
	// Round-robin scan for a free address.
	n := len(s.poolIPs)
	for i := 0; i < n; i++ {
		ip := s.poolIPs[(s.nextScan+i)%n]
		if _, taken := s.byIP[ip]; !taken {
			s.nextScan = (s.nextScan + i + 1) % n
			return ip, true
		}
	}
	return dnswire.IPv4{}, false
}

func (s *Server) inPoolLocked(ip dnswire.IPv4) bool {
	for _, p := range s.cfg.Pools {
		if p.Contains(ip) && ip != p.First() && ip != p.Last() && ip != s.cfg.ServerIP {
			return true
		}
	}
	return false
}

func (s *Server) emit(ev Event) {
	if s.cfg.Sink != nil {
		s.cfg.Sink.LeaseEvent(ev)
	}
}
