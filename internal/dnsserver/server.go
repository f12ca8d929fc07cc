package dnsserver

import (
	"bytes"
	"errors"
	"maps"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/telemetry"
)

// Server is an authoritative DNS server holding any number of zones. The
// zero value is not usable; create one with NewServer.
//
// HandleQuery is safe for concurrent callers and — unless a fault injector
// is installed — takes no server-wide lock: queries read the zone table through
// a copy-on-write snapshot (one atomic load), so a sharded scanner can drive
// one server from many workers and the only lock a query touches is the read
// lock of the one zone that answers it.
type Server struct {
	mu    sync.RWMutex // guards zones, updatePolicy and allowTransfer
	zones map[dnswire.Name]*Zone
	// table is the read-only copy of zones that queries use. AddZone clears
	// it and the next query republishes it, so attaching n zones costs one
	// copy, not n.
	table         atomic.Pointer[map[dnswire.Name]*Zone]
	injector      atomic.Pointer[faultsim.Injector]
	tracer        atomic.Pointer[telemetry.Tracer]
	stats         counters
	updatePolicy  UpdatePolicy
	allowTransfer bool
}

// ServerDropped is the "server" span event code for queries that produced
// no response (malformed packets, injected drops, marshal failures).
// Answered queries emit their response RCode (0..15) as the event code, so
// the two ranges cannot collide.
const ServerDropped = 0x100

// ServerStats counts query handling outcomes.
type ServerStats struct {
	Queries   uint64
	NoError   uint64
	NXDomain  uint64
	ServFail  uint64
	Refused   uint64
	FormErr   uint64
	Dropped   uint64
	NotImp    uint64
	Malformed uint64
	Updates   uint64
	Transfers uint64
}

// counters is the live, atomically-updated form of ServerStats.
type counters struct {
	queries, dropped, malformed, updates, transfers atomic.Uint64
	// answers counts replies by RCODE; the six this server sends are the
	// first six code points.
	answers [dnswire.RCodeRefused + 1]atomic.Uint64
}

// NewServer creates a server with no zones.
func NewServer() *Server {
	return &Server{zones: make(map[dnswire.Name]*Zone)}
}

// SetInjector installs inj as the server's fault model: every query that
// carries a question takes its verdict from inj.Decide on the first
// question's name — dropped, answered SERVFAIL or REFUSED, or answered —
// after the server's one parse of it. The server delays nothing, so a
// profile's latency does not apply here. Pass nil to remove it. It is safe
// to call while the server is answering queries: the injector applies to
// queries that begin after the call.
func (s *Server) SetInjector(inj *faultsim.Injector) {
	s.injector.Store(inj)
}

// AddZone attaches a zone to the server.
func (s *Server) AddZone(z *Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin()] = z
	s.table.Store(nil)
}

// zoneTable returns the current read-only zone table.
func (s *Server) zoneTable() map[dnswire.Name]*Zone {
	if t := s.table.Load(); t != nil {
		return *t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.table.Load(); t != nil {
		return *t // another query republished it first
	}
	t := maps.Clone(s.zones)
	s.table.Store(&t)
	return t
}

// Zone returns the zone with the given origin, if attached.
func (s *Server) Zone(origin dnswire.Name) (*Zone, bool) {
	z, ok := s.zoneTable()[origin]
	return z, ok
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Queries:   s.stats.queries.Load(),
		NoError:   s.stats.answers[dnswire.RCodeNoError].Load(),
		NXDomain:  s.stats.answers[dnswire.RCodeNXDomain].Load(),
		ServFail:  s.stats.answers[dnswire.RCodeServFail].Load(),
		Refused:   s.stats.answers[dnswire.RCodeRefused].Load(),
		FormErr:   s.stats.answers[dnswire.RCodeFormErr].Load(),
		Dropped:   s.stats.dropped.Load(),
		NotImp:    s.stats.answers[dnswire.RCodeNotImp].Load(),
		Malformed: s.stats.malformed.Load(),
		Updates:   s.stats.updates.Load(),
		Transfers: s.stats.transfers.Load(),
	}
}

// findZone returns the most-specific zone containing name, which is in
// canonical presentation form. Zone origins are map keys, so the walk probes
// each suffix of name directly — left to right, longest (most specific)
// first — instead of iterating every zone.
func (s *Server) findZone(name []byte) *Zone {
	zones := s.zoneTable()
	var found *Zone
	for start := 0; start < len(name) && found == nil; {
		found = zones[dnswire.Name(name[start:])]
		dot := bytes.IndexByte(name[start:], '.')
		if dot < 0 {
			break
		}
		start += dot + 1
	}
	if found == nil {
		found = zones[dnswire.Root]
	}
	return found
}

// HandleQuery processes one wire-format query and returns the wire-format
// response, or nil if the query must be silently dropped (malformed packets
// and injected drops). It only reads query and does not retain it; the
// response is a fresh slice the caller owns.
func (s *Server) HandleQuery(query []byte) []byte {
	return s.handle(query, 0, false)
}

// HandleQueryCorr is HandleQuery for a query that belongs to the causal
// chain identified by corr (telemetry.CorrID). When a tracer is attached
// (SetTracer) and corr is non-zero, handling emits one "server" span
// carrying corr, whose single event is the response RCode — or
// ServerDropped when the query died without an answer — so a trace dump
// joins the server's verdict to the client attempt and fabric hops that
// delivered it. corr zero behaves exactly like HandleQuery.
func (s *Server) HandleQueryCorr(query []byte, corr uint64) []byte {
	return s.handle(query, corr, false)
}

// handle is the one responder: it reads the query in place, and writes
// header, echoed question and the answering zone's records straight into
// the reply. udp adds the datagram transport's discipline: AXFR is refused
// outright (RFC 5936 §4.2) and a reply larger than MaxUDPResponse is cut
// back to header and question with the TC bit set.
func (s *Server) handle(query []byte, corr uint64, udp bool) []byte {
	var sp *telemetry.Span
	if corr != 0 {
		if tr := s.tracer.Load(); tr != nil {
			sp = tr.StartSpanCorr("server", "", corr)
			defer sp.End()
		}
	}
	s.stats.queries.Add(1)
	reply, rcode := s.respond(query, sp, udp)
	if reply == nil {
		sp.Event("server", ServerDropped)
		return nil
	}
	sp.Event("server", uint64(rcode))
	return reply
}

// respond builds the reply to query, or returns nil when there is none to
// send. The reply is assembled in a buffer on this frame (only its size is
// unknown until it is written) and returned as an exact-size copy, the one
// allocation an answered query costs; nothing returned aliases the frame.
func (s *Server) respond(query []byte, sp *telemetry.Span, udp bool) ([]byte, dnswire.RCode) {
	v, err := dnswire.Parse(query)
	if err != nil {
		return s.drop(&s.stats.malformed)
	}
	var nb [dnswire.MaxNameLen + 1]byte
	var qname []byte
	var qtype dnswire.Type
	var qclass dnswire.Class
	questions := v.Count(dnswire.SectionQuestion)
	if questions > 0 {
		qname, qtype, qclass = v.Question(nb[:0])
	}
	axfrOverUDP := udp && questions == 1 && qtype == dnswire.TypeAXFR
	if v.Header.Response && !axfrOverUDP {
		return s.drop(&s.stats.malformed)
	}
	if sp != nil && questions > 0 {
		sp.Attr = string(qname)
	}
	// injected is the injector's answer, if any; NOERROR is never one.
	var injected dnswire.RCode
	if inj := s.injector.Load(); inj != nil && questions > 0 && !axfrOverUDP {
		switch out, _ := inj.Decide(dnswire.Name(qname)); out {
		case faultsim.OutcomeDrop:
			return s.drop(&s.stats.dropped)
		case faultsim.OutcomeServFail:
			injected = dnswire.RCodeServFail
		case faultsim.OutcomeRefused:
			injected = dnswire.RCodeRefused
		}
	}

	var scratch [512]byte
	var wire []byte
	var rcode dnswire.RCode
	if v.Header.OpCode == dnswire.OpUpdate && injected == 0 && !axfrOverUDP {
		// UPDATEs change zones and are rare next to queries: they keep the
		// materialized message, and applyUpdate keeps their tallies.
		msg, err := dnswire.Unmarshal(query)
		if err != nil {
			return s.drop(&s.stats.malformed)
		}
		resp := s.applyUpdate(msg)
		rcode = resp.Header.RCode
		wire, err = resp.AppendTo(scratch[:0])
		if err != nil {
			return nil, 0
		}
	} else {
		var b dnswire.Builder
		buf := b.Begin(scratch[:0])
		if questions == 1 {
			buf = b.Question(buf, qname, qtype, qclass) // already decoded
		} else {
			buf = b.Questions(buf, &v)
		}
		authoritative := false
		switch {
		case axfrOverUDP:
			rcode = dnswire.RCodeRefused
		case injected != 0:
			rcode = injected
		case v.Header.OpCode != dnswire.OpQuery:
			rcode = dnswire.RCodeNotImp
		case questions != 1:
			rcode = dnswire.RCodeFormErr
		default:
			if zone := s.findZone(qname); zone == nil {
				rcode = dnswire.RCodeRefused
			} else {
				buf, rcode = zone.answer(&b, buf, qname, qtype)
				authoritative = true
			}
		}
		s.stats.answers[rcode].Add(1)
		if udp && len(buf) > MaxUDPResponse {
			buf = b.Truncate(buf)
		}
		wire, err = b.Finish(buf, dnswire.Header{
			ID:               v.Header.ID,
			Response:         true,
			OpCode:           v.Header.OpCode,
			Authoritative:    authoritative,
			RecursionDesired: v.Header.RecursionDesired,
			RCode:            rcode,
		})
		if err != nil {
			return nil, 0
		}
	}
	return append(make([]byte, 0, len(wire)), wire...), rcode
}

// drop tallies a query that gets no reply.
func (s *Server) drop(tally *atomic.Uint64) ([]byte, dnswire.RCode) {
	tally.Add(1)
	return nil, 0
}

// AttachFabric binds the server to addr on a simulation fabric and answers
// queries arriving there. It returns the endpoint for closing.
func (s *Server) AttachFabric(f *fabric.Fabric, addr fabric.Addr) (*fabric.Endpoint, error) {
	var ep *fabric.Endpoint
	ep, err := f.Bind(addr, func(dg fabric.Datagram) {
		// The reply inherits the query's correlation ID, so the return
		// leg's fabric hop joins the same causal chain.
		if resp := s.HandleQueryCorr(dg.Payload, dg.Corr); resp != nil {
			ep.SendCorr(dg.Src, resp, dg.Corr)
		}
	})
	return ep, err
}

// Serve answers queries on a real packet connection (e.g. a loopback UDP
// socket) until reading fails. It is used by cmd/simnet to expose simulated
// networks to real DNS clients such as dig.
//
// On a *net.UDPConn the peer travels as a netip.AddrPort value, so the loop
// allocates nothing per datagram beyond the reply; any other PacketConn is
// served through the interface's net.Addr calls.
func (s *Server) Serve(conn net.PacketConn) error {
	buf := make([]byte, 4096)
	udp, _ := conn.(*net.UDPConn)
	for {
		var (
			n    int
			peer netip.AddrPort
			src  net.Addr
			err  error
		)
		if udp != nil {
			n, peer, err = udp.ReadFromUDPAddrPort(buf)
		} else {
			n, src, err = conn.ReadFrom(buf)
		}
		if err == nil {
			resp := s.HandleQueryUDP(buf[:n])
			switch {
			case resp == nil:
			case udp != nil:
				_, err = udp.WriteToUDPAddrPort(resp, peer)
			default:
				_, err = conn.WriteTo(resp, src)
			}
		}
		if err != nil {
			if isClosed(err) {
				return nil
			}
			return err
		}
	}
}

func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
