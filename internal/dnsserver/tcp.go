package dnsserver

import (
	"net"
	"sort"

	"rdnsprivacy/internal/dnswire"
)

// This file adds the TCP side of the authoritative server: length-framed
// messages (RFC 1035 §4.2.2), UDP truncation signalling for responses that
// exceed the classic 512-octet limit, and AXFR zone transfers — the
// misconfiguration that hands an attacker a whole reverse zone in one
// query instead of a 256-address scan (compare Tatang et al.'s
// infrastructure-leaking servers in the paper's related work).

// MaxUDPResponse is the classic RFC 1035 UDP payload limit. It is a
// variable so tests can exercise the truncation path with small messages;
// production code treats it as a constant.
var MaxUDPResponse = 512

// SetTransferPolicy controls whether AXFR requests are served (default:
// refused, the safe configuration).
func (s *Server) SetTransferPolicy(allow bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allowTransfer = allow
}

// HandleQueryUDP is HandleQuery plus UDP size discipline: responses larger
// than MaxUDPResponse are truncated to a header-and-question-only reply
// with the TC bit set, telling the client to retry over TCP. AXFR over UDP
// is refused outright (RFC 5936 §4.2). Both are decided in the responder's
// one parse of the datagram.
func (s *Server) HandleQueryUDP(query []byte) []byte {
	return s.handle(nil, query, 0, true)
}

// ServeTCP answers length-framed DNS queries on a stream listener until
// Accept fails. Each connection is served on its own goroutine; AXFR
// requests stream the zone as a multi-record response.
func (s *Server) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return served(err)
		}
		go s.serveTCPConn(conn)
	}
}

func (s *Server) serveTCPConn(conn net.Conn) {
	defer conn.Close()
	for {
		query, err := dnswire.ReadFramed(conn)
		if err != nil {
			return
		}
		for _, resp := range s.handleTCP(query) {
			if err := dnswire.WriteFramed(conn, resp); err != nil {
				return
			}
		}
	}
}

// handleTCP produces the response message sequence for one TCP query
// (several messages for AXFR, one otherwise). It is exported through the
// test seam handleTCP to allow transport-free testing.
func (s *Server) handleTCP(query []byte) [][]byte {
	msg, err := dnswire.Unmarshal(query)
	if err == nil && !msg.Header.Response &&
		msg.Header.OpCode == dnswire.OpQuery &&
		len(msg.Questions) == 1 && msg.Questions[0].Type == dnswire.TypeAXFR {
		return s.handleAXFR(msg)
	}
	if resp := s.HandleQuery(query); resp != nil {
		return [][]byte{resp}
	}
	return nil
}

// handleAXFR streams a zone: SOA, every record, SOA (RFC 5936). Transfers
// must be enabled and the zone attached; otherwise REFUSED.
func (s *Server) handleAXFR(msg *dnswire.Message) [][]byte {
	s.stats.queries.Add(1)
	s.mu.RLock()
	allow := s.allowTransfer
	s.mu.RUnlock()
	zone, ok := s.Zone(msg.Questions[0].Name)
	if !allow || !ok {
		s.stats.answers[dnswire.RCodeRefused].Add(1)
		resp := dnswire.NewResponse(msg, dnswire.RCodeRefused)
		wire, err := resp.Marshal()
		if err != nil {
			return nil
		}
		return [][]byte{wire}
	}

	soa := zone.soaRecord()
	records := zone.allRecords()
	sort.Slice(records, func(i, j int) bool { return records[i].Name < records[j].Name })

	// Envelope records into messages that fit comfortably in a frame.
	var out [][]byte
	pending := []dnswire.Record{soa}
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		resp := dnswire.NewResponse(msg, dnswire.RCodeNoError)
		resp.Header.Authoritative = true
		resp.Answers = pending
		wire, err := resp.Marshal()
		if err != nil {
			return false
		}
		out = append(out, wire)
		pending = nil
		return true
	}
	for _, rr := range records {
		pending = append(pending, rr)
		if len(pending) >= 100 {
			if !flush() {
				return nil
			}
		}
	}
	pending = append(pending, soa)
	if !flush() {
		return nil
	}
	s.stats.transfers.Add(1)
	return out
}

// allRecords snapshots every record in the zone.
func (z *Zone) allRecords() []dnswire.Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.Record
	for _, rrs := range z.records {
		out = append(out, rrs...)
	}
	return out
}
