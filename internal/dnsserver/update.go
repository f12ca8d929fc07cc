package dnsserver

import (
	"rdnsprivacy/internal/dnswire"
)

// This file implements the server side of RFC 2136 DNS UPDATE: the
// mechanism by which real DHCP servers and IPAM systems install PTR
// records on authoritative name servers (§2.1 of the paper: "when a client
// requests a DHCP lease ... various changes to the DNS related to the IP
// address are made automatically").
//
// Authorization is by source knowledge of the update channel only (the
// simulation's stand-in for TSIG): updates can be disabled entirely with
// SetUpdatePolicy.

// UpdatePolicy controls whether a server accepts UPDATE messages.
type UpdatePolicy int

// Update policies.
const (
	// UpdatesAllowed applies well-formed updates to attached zones.
	UpdatesAllowed UpdatePolicy = iota
	// UpdatesRefused answers every UPDATE with REFUSED.
	UpdatesRefused
)

// SetUpdatePolicy sets the server's UPDATE policy (default: allowed).
func (s *Server) SetUpdatePolicy(p UpdatePolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updatePolicy = p
}

// updateFailed tallies and builds the reply to an UPDATE that was not
// applied.
func (s *Server) updateFailed(msg *dnswire.Message, rcode dnswire.RCode) *dnswire.Message {
	s.stats.answers[rcode].Add(1)
	return dnswire.NewResponse(msg, rcode)
}

// applyUpdate processes an RFC 2136 UPDATE message and returns the
// response. Supported operations: add PTR (class IN), delete RRset
// (class ANY + type), delete name (class ANY + type ANY), delete specific
// RR (class NONE). Prerequisites are not implemented and yield NOTIMP.
func (s *Server) applyUpdate(msg *dnswire.Message) *dnswire.Message {
	s.mu.RLock()
	refused := s.updatePolicy == UpdatesRefused
	s.mu.RUnlock()
	if refused {
		return s.updateFailed(msg, dnswire.RCodeRefused)
	}
	zoneName, err := msg.UpdateZone()
	if err != nil {
		return s.updateFailed(msg, dnswire.RCodeFormErr)
	}
	zone, ok := s.Zone(zoneName)
	if !ok {
		// RFC 2136 §3.1.2: NOTAUTH would be precise; REFUSED keeps the
		// supported RCode set small and is what clients treat
		// equivalently.
		return s.updateFailed(msg, dnswire.RCodeRefused)
	}
	if len(msg.Answers) != 0 {
		// Prerequisites are not supported.
		return s.updateFailed(msg, dnswire.RCodeNotImp)
	}
	// Validate every operation before applying any (updates are atomic,
	// RFC 2136 §3.4).
	for _, rr := range msg.Authorities {
		if !rr.Name.HasSuffix(zoneName) {
			return s.updateFailed(msg, dnswire.RCodeFormErr)
		}
		switch rr.Class {
		case dnswire.ClassIN:
			if rr.Type != dnswire.TypePTR {
				return s.updateFailed(msg, dnswire.RCodeNotImp)
			}
			if _, ok := rr.Data.(dnswire.PTRData); !ok {
				return s.updateFailed(msg, dnswire.RCodeFormErr)
			}
		case dnswire.ClassANY, dnswire.ClassNONE:
			if rr.Type != dnswire.TypePTR && rr.Type != dnswire.TypeANY {
				return s.updateFailed(msg, dnswire.RCodeNotImp)
			}
		default:
			return s.updateFailed(msg, dnswire.RCodeFormErr)
		}
	}
	for _, rr := range msg.Authorities {
		switch rr.Class {
		case dnswire.ClassIN:
			ptr := rr.Data.(dnswire.PTRData)
			if err := zone.SetPTR(rr.Name, ptr.Target); err != nil {
				return s.updateFailed(msg, dnswire.RCodeServFail)
			}
		case dnswire.ClassANY, dnswire.ClassNONE:
			zone.RemovePTR(rr.Name)
		}
	}
	s.stats.updates.Add(1)
	resp := dnswire.NewResponse(msg, dnswire.RCodeNoError)
	resp.Header.Authoritative = true
	return resp
}
