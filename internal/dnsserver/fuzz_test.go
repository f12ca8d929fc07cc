package dnsserver

import (
	"bytes"
	"reflect"
	"testing"

	"rdnsprivacy/internal/dnswire"
)

// checkReply holds one reply to query to what every reply owes it: it
// parses, it is a response, and it echoes the query's ID and question
// section. A dropped query (no reply) owes nothing.
func checkReply(t *testing.T, query, reply []byte) {
	t.Helper()
	if reply == nil {
		return
	}
	resp, err := dnswire.Unmarshal(reply)
	if err != nil {
		t.Fatalf("reply does not parse: %v\nquery %x\nreply %x", err, query, reply)
	}
	q, err := dnswire.Unmarshal(query)
	if err != nil {
		t.Fatalf("answered a query that does not parse (%v)\nquery %x", err, query)
	}
	if !resp.Header.Response || resp.Header.ID != q.Header.ID {
		t.Fatalf("reply header %+v to query header %+v", resp.Header, q.Header)
	}
	if !reflect.DeepEqual(resp.Questions, q.Questions) {
		t.Fatalf("reply questions %+v, query questions %+v", resp.Questions, q.Questions)
	}
}

// fuzzSeeds adds every golden query, updates among them, to f.
func fuzzSeeds(f *testing.F) {
	_, steps := goldenSteps(f)
	for _, st := range steps {
		f.Add(st.query)
	}
}

// FuzzHandleUpdate fuzzes the responder on a server holding zones and
// accepting UPDATEs: any bytes, and any UPDATE among them, must come back
// as a well-formed reply echoing the query's ID and question, or as none.
// UPDATEs take the materialized dnswire.Unmarshal path, so this is that
// path's fuzz.
func FuzzHandleUpdate(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, query []byte) {
		s, _ := goldenSteps(t)
		s.SetUpdatePolicy(UpdatesAllowed)
		checkReply(t, query, s.HandleQuery(query))
	})
}

// FuzzHandleTCP fuzzes the TCP responder with zone transfers allowed:
// every message of the reply — a whole AXFR stream included — must be
// well-formed and echo the query's ID and question.
func FuzzHandleTCP(f *testing.F) {
	fuzzSeeds(f)
	for _, zone := range []string{"2.0.192.in-addr.arpa", "9.0.192.in-addr.arpa", "3.0.192.in-addr.arpa"} {
		axfr, err := dnswire.NewQuery(60, dnswire.MustName(zone), dnswire.TypeAXFR).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(axfr)
	}
	f.Fuzz(func(t *testing.T, query []byte) {
		s, _ := goldenSteps(t)
		s.SetTransferPolicy(true)
		for _, reply := range s.handleTCP(query) {
			checkReply(t, query, reply)
		}
	})
}

// FuzzHandleQuery holds the responder's in-place paths — the echoed
// question, the per-zone negative answer — to an oracle built on the
// materialized codec: the reply to any query bytes, against zones whose
// SOA names lie outside, around and inside them and the root zone, must be
// the bytes dnswire.Message.Marshal writes for the query's decoded
// question and what the answering zone holds, records exactly as stored.
func FuzzHandleQuery(f *testing.F) {
	fuzzSeeds(f)
	_, _, steps := negativeSteps(f)
	for _, st := range steps {
		f.Add(st.query)
	}
	f.Fuzz(func(t *testing.T, query []byte) {
		srv, rootSrv, _ := negativeSteps(t)
		for _, s := range []*Server{srv, rootSrv} {
			reply := s.HandleQuery(query)
			want, ok := referenceReply(s, query)
			if ok && !bytes.Equal(reply, want) {
				t.Fatalf("query %x\nreply %x\n want %x", query, reply, want)
			}
		}
	})
}

// referenceReply is what the responder owes query, worked out from the
// decoded query and the zones' stored records and written by Marshal: no
// reply to what does not parse or is a response, otherwise the query's
// questions echoed and, for one question of a standard query, the zone's
// answer. It reports false for an UPDATE, which changes the zone and is
// FuzzHandleUpdate's.
func referenceReply(s *Server, query []byte) ([]byte, bool) {
	q, err := dnswire.Unmarshal(query)
	if err != nil || q.Header.Response {
		return nil, true
	}
	m := &dnswire.Message{Header: dnswire.Header{ID: q.Header.ID, Response: true, OpCode: q.Header.OpCode,
		RecursionDesired: q.Header.RecursionDesired}, Questions: q.Questions}
	switch {
	case q.Header.OpCode == dnswire.OpUpdate:
		return nil, false
	case q.Header.OpCode != dnswire.OpQuery:
		m.Header.RCode = dnswire.RCodeNotImp
	case len(q.Questions) != 1:
		m.Header.RCode = dnswire.RCodeFormErr
	default:
		question := q.Questions[0]
		z := s.findZone([]byte(question.Name))
		if z == nil {
			m.Header.RCode = dnswire.RCodeRefused
			break
		}
		m.Header.Authoritative = true
		z.mu.RLock()
		soa := z.soaRR
		rrs, exists := z.records[question.Name]
		for _, rr := range rrs {
			if question.Type == dnswire.TypeANY || rr.Type == question.Type {
				m.Answers = append(m.Answers, rr)
			}
		}
		z.mu.RUnlock()
		switch {
		case question.Name == z.origin:
			m.Answers = nil
			switch question.Type {
			case dnswire.TypeSOA, dnswire.TypeANY:
				m.Answers = []dnswire.Record{soa}
			case dnswire.TypeNS:
				m.Answers = z.ns
			default:
				m.Authorities = []dnswire.Record{soa}
			}
		case !exists:
			m.Header.RCode = dnswire.RCodeNXDomain
			m.Authorities = []dnswire.Record{soa}
		case len(m.Answers) == 0:
			m.Authorities = []dnswire.Record{soa}
		}
	}
	wire, err := m.Marshal()
	if err != nil {
		return nil, true // a decoded name that does not re-encode: no reply
	}
	return wire, true
}
