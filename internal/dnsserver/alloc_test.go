package dnsserver

import (
	"testing"

	"rdnsprivacy/internal/dnswire"
)

// The probe budget, where tier-1 sees it: answering a query allocates the
// reply the caller keeps and nothing else, whether the name is there or not.
func TestHandleQueryAllocatesOnlyTheReply(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	found := dnswire.MustIPv4("192.0.2.10")
	if err := z.SetPTR(dnswire.ReverseName(found), dnswire.MustName("brians-iphone.dyn.example.edu")); err != nil {
		t.Fatal(err)
	}
	for name, ip := range map[string]dnswire.IPv4{"found": found, "nxdomain": dnswire.MustIPv4("192.0.2.99")} {
		query, err := dnswire.AppendQuery(nil, 7, dnswire.ReverseName(ip), dnswire.TypePTR)
		if err != nil {
			t.Fatal(err)
		}
		if s.HandleQuery(query) == nil {
			t.Fatalf("%s: no reply", name)
		}
		if got := testing.AllocsPerRun(200, func() { s.HandleQuery(query) }); got > 1 {
			t.Errorf("%s: HandleQuery allocates %.1f objects per query, budget 1 (the returned slice)", name, got)
		}
	}
}
