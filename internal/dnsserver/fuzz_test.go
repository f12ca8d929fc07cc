package dnsserver

import (
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
