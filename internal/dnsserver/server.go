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

// FailureMode injects server-side failures, modelling the name-server
// failures and timeouts the paper observes during its supplemental
// measurement (Figure 6).
//
// Decisions are deterministic per query: whether an individual query is
// dropped or SERVFAILed is a pure function of the seed, the question name,
// and how many times that name has been asked — never of the interleaving
// of unrelated queries. Concurrent sweeps therefore fail the same
// addresses regardless of worker scheduling, and a retransmission of a
// previously dropped query draws a fresh decision, so client retries can
// succeed against partial failure rates.
type FailureMode struct {
	// ServFailRate is the fraction of queries answered with SERVFAIL.
	ServFailRate float64
	// DropRate is the fraction of queries silently dropped (the client
	// observes a timeout).
	DropRate float64
	// Seed seeds the per-query failure hash.
	Seed int64
}

// enabled reports whether any injection is configured.
func (fm FailureMode) enabled() bool {
	return fm.DropRate > 0 || fm.ServFailRate > 0
}

// failureState is the installed failure configuration plus the per-name
// attempt counters that make decisions independent of call order across
// names. A fresh state (and fresh counters) is installed on every
// SetFailureMode, so reconfiguring a live server restarts the sequence.
type failureState struct {
	mode FailureMode

	mu  sync.Mutex
	seq map[dnswire.Name]uint64
}

// decide classifies one query deterministically. It returns whether to
// drop it and whether to answer SERVFAIL. The draw is faultsim's — the one
// fault model of the tree — so a server failing at these rates and an
// Injector with the equivalent Profile fail the same queries.
func (fs *failureState) decide(name dnswire.Name) (drop, servFail bool) {
	fs.mu.Lock()
	n := fs.seq[name]
	fs.seq[name] = n + 1
	fs.mu.Unlock()
	p := faultsim.Profile{Loss: fs.mode.DropRate, ServFailRate: fs.mode.ServFailRate}
	switch p.Sample(fs.mode.Seed, name, n) {
	case faultsim.OutcomeDrop:
		return true, false
	case faultsim.OutcomeServFail:
		return false, true
	}
	return false, false
}

// Server is an authoritative DNS server holding any number of zones. The
// zero value is not usable; create one with NewServer.
//
// HandleQuery is safe for concurrent callers and — unless failure injection
// is enabled — takes no server-wide lock: queries read the zone table through
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
	failure       atomic.Pointer[failureState]
	met           atomic.Pointer[serverMetrics]
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

// SetFailureMode installs failure injection. Pass the zero value to
// disable. It is safe to call while the server is answering queries
// (including after Serve has started): the new mode applies atomically to
// queries that begin after the call, and per-name decision sequences
// restart from zero.
func (s *Server) SetFailureMode(fm FailureMode) {
	if !fm.enabled() {
		s.failure.Store(nil)
		return
	}
	s.failure.Store(&failureState{mode: fm, seq: make(map[dnswire.Name]uint64)})
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
// first — instead of iterating every zone. When met is non-nil the number of
// suffix probes is recorded as the zone-walk depth.
func (s *Server) findZone(name []byte, met *serverMetrics) *Zone {
	zones := s.zoneTable()
	var found *Zone
	depth := 0
	for start := 0; start < len(name) && found == nil; {
		depth++
		found = zones[dnswire.Name(name[start:])]
		dot := bytes.IndexByte(name[start:], '.')
		if dot < 0 {
			break
		}
		start += dot + 1
	}
	if found == nil {
		depth++
		found = zones[dnswire.Root]
	}
	if met != nil {
		met.zoneWalkDepth.Observe(float64(depth))
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
	met := s.met.Load()
	if met != nil {
		met.queries.Inc()
	}
	reply, rcode := s.respond(query, met, sp, udp)
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
func (s *Server) respond(query []byte, met *serverMetrics, sp *telemetry.Span, udp bool) ([]byte, dnswire.RCode) {
	v, err := dnswire.Parse(query)
	if err != nil {
		return s.drop(met, &s.stats.malformed)
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
		return s.drop(met, &s.stats.malformed)
	}
	if sp != nil && questions > 0 {
		sp.Attr = string(qname)
	}
	injectServFail := false
	if fs := s.failure.Load(); fs != nil && questions > 0 && !axfrOverUDP {
		drop, servFail := fs.decide(dnswire.Name(qname))
		if drop {
			return s.drop(met, &s.stats.dropped)
		}
		injectServFail = servFail
	}

	var scratch [512]byte
	var wire []byte
	var rcode dnswire.RCode
	if v.Header.OpCode == dnswire.OpUpdate && !injectServFail && !axfrOverUDP {
		// UPDATEs change zones and are rare next to queries: they keep the
		// materialized message, and applyUpdate keeps their tallies.
		msg, err := dnswire.Unmarshal(query)
		if err != nil {
			return s.drop(met, &s.stats.malformed)
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
		case injectServFail:
			rcode = dnswire.RCodeServFail
		case v.Header.OpCode != dnswire.OpQuery:
			rcode = dnswire.RCodeNotImp
		case questions != 1:
			rcode = dnswire.RCodeFormErr
		default:
			if zone := s.findZone(qname, met); zone == nil {
				rcode = dnswire.RCodeRefused
			} else {
				buf, rcode = zone.answer(&b, buf, qname, qtype)
				authoritative = true
			}
		}
		s.countAnswer(met, rcode)
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
func (s *Server) drop(met *serverMetrics, tally *atomic.Uint64) ([]byte, dnswire.RCode) {
	tally.Add(1)
	if met != nil {
		met.dropped.Inc()
	}
	return nil, 0
}

// countAnswer tallies one answered query in both ledgers — the Stats
// counters and, when attached, the dnsserver_* telemetry — which therefore
// agree on every branch.
func (s *Server) countAnswer(met *serverMetrics, rcode dnswire.RCode) {
	s.stats.answers[rcode].Add(1)
	if met != nil {
		met.answers[rcode].Inc()
	}
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
