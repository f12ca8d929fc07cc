package dnsserver

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
)

// updateGolden re-records testdata/golden_replies.txt from whatever server
// this tree has. The checked-in file was recorded from the responder that
// built, boxed and marshalled a dnswire.Message per reply, so a plain
// `go test` proves the answer-into-buffer responder emits the same bytes:
// the seeded reports and the live-reactive digest hang on that.
var updateGolden = flag.Bool("update-golden", false, "re-record testdata/golden_replies.txt")

// goldenStep is one query against the golden server, in order: later
// steps see the zone state (and SOA serial) earlier UPDATEs left behind.
type goldenStep struct {
	name  string
	udp   bool // through HandleQueryUDP
	setup func(s *Server)
	query []byte
}

func goldenSteps(t testing.TB) (*Server, []goldenStep) {
	wire := func(m *dnswire.Message) []byte {
		w, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ask := func(id uint16, name string, qtype dnswire.Type) []byte {
		return wire(dnswire.NewQuery(id, dnswire.MustName(name), qtype))
	}
	patched := func(w []byte, edit func(w []byte) []byte) []byte {
		return edit(append([]byte(nil), w...))
	}

	s := NewServer()
	z := NewZone(ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	s.AddZone(z)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(z.SetPTR(dnswire.MustName("10.2.0.192.in-addr.arpa"), dnswire.MustName("brians-iphone.dyn.example.edu")))
	must(z.SetPTR(dnswire.MustName("11.2.0.192.in-addr.arpa"), dnswire.MustName("printer.11.2.0.192.in-addr.arpa")))
	must(z.SetA(dnswire.MustName("11.2.0.192.in-addr.arpa"), dnswire.MustIPv4("192.0.2.11")))
	must(z.SetA(dnswire.MustName("12.2.0.192.in-addr.arpa"), dnswire.MustIPv4("192.0.2.12")))
	// A zone whose SOA alone overflows a classic UDP payload.
	long := func(tag string) dnswire.Name {
		var labels []string
		for i := 0; i < 4; i++ {
			labels = append(labels, strings.Repeat(fmt.Sprintf("%s%d", tag, i), 20)[:58])
		}
		return dnswire.MustName(strings.Join(labels, "."))
	}
	s.AddZone(NewZone(ZoneConfig{
		Origin:    dnswire.MustName("9.0.192.in-addr.arpa"),
		PrimaryNS: long("ns"),
		Mbox:      long("mbox"),
	}))

	ptr10 := ask(1, "10.2.0.192.in-addr.arpa", dnswire.TypePTR)
	upd := func(id uint16, edit func(m *dnswire.Message)) []byte {
		m := dnswire.NewUpdate(id, dnswire.MustName("2.0.192.in-addr.arpa"))
		edit(m)
		return wire(m)
	}
	name20 := dnswire.MustName("20.2.0.192.in-addr.arpa")

	steps := []goldenStep{
		{name: "found-ptr", query: ptr10},
		{name: "found-ptr-target-compresses", query: ask(2, "11.2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "found-any-two-records", query: ask(3, "11.2.0.192.in-addr.arpa", dnswire.TypeANY)},
		{name: "nxdomain", query: ask(4, "99.2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "nxdomain-below-a-name", query: ask(5, "x.10.2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "nodata-a-at-ptr-name", query: ask(6, "10.2.0.192.in-addr.arpa", dnswire.TypeA)},
		{name: "nodata-ptr-at-a-name", query: ask(7, "12.2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "apex-soa", query: ask(8, "2.0.192.in-addr.arpa", dnswire.TypeSOA)},
		{name: "apex-ns", query: ask(9, "2.0.192.in-addr.arpa", dnswire.TypeNS)},
		{name: "apex-any", query: ask(10, "2.0.192.in-addr.arpa", dnswire.TypeANY)},
		{name: "apex-nodata", query: ask(11, "2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "refused-no-zone", query: ask(12, "10.3.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "refused-root", query: patched(ptr10, func(w []byte) []byte { return append(w[:12], 0, 0, 12, 0, 1) })},
		{name: "case-folded-rd-echoed", query: patched(ptr10, func(w []byte) []byte {
			w[2] |= 0x01 // RD
			for i := 12; i < len(w)-4; i++ {
				if w[i] >= 'a' && w[i] <= 'z' {
					w[i] -= 'a' - 'A'
				}
			}
			return w
		})},
		{name: "reserved-flag-bits-dropped", query: patched(ptr10, func(w []byte) []byte { w[3] |= 0x70; return w })},
		{name: "question-name-through-pointer", query: patched(ptr10, func(w []byte) []byte {
			// QNAME "10" + a pointer into the header, where QDCOUNT's low
			// octet reads as a one-octet label holding a NUL.
			return append(w[:12], 2, '1', '0', 0xC0, 5, 0, 12, 0, 1)
		})},
		{name: "question-label-with-dot-dropped", query: patched(ptr10, func(w []byte) []byte {
			return append(w[:12], 1, '.', 0, 0, 12, 0, 1)
		})},
		{name: "formerr-no-question", query: patched(ptr10, func(w []byte) []byte { w[5] = 0; return w[:12] })},
		{name: "formerr-two-questions", query: wire(&dnswire.Message{
			Header: dnswire.Header{ID: 13},
			Questions: []dnswire.Question{
				{Name: dnswire.MustName("10.2.0.192.in-addr.arpa"), Type: dnswire.TypePTR, Class: dnswire.ClassIN},
				{Name: dnswire.MustName("11.2.0.192.in-addr.arpa"), Type: dnswire.TypePTR, Class: dnswire.ClassIN},
			}})},
		{name: "notimp-opcode-2", query: patched(ptr10, func(w []byte) []byte { w[2] |= 2 << 3; return w })},
		{name: "dropped-response-bit", query: patched(ptr10, func(w []byte) []byte { w[2] |= 0x80; return w })},
		{name: "dropped-garbage", query: []byte{1, 2, 3}},
		{name: "dropped-trailing-byte", query: append(append([]byte(nil), ptr10...), 0)},
		{name: "non-in-class", query: patched(ptr10, func(w []byte) []byte { w[len(w)-1] = 3; return w })},

		{name: "update-add", query: upd(20, func(m *dnswire.Message) {
			m.AddRR(dnswire.Record{Name: name20, Type: dnswire.TypePTR, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.PTRData{Target: dnswire.MustName("alices-mbp.dyn.example.edu")}})
		})},
		{name: "after-update-found", query: ask(21, "20.2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "after-update-serial", query: ask(22, "2.0.192.in-addr.arpa", dnswire.TypeSOA)},
		{name: "update-delete-rrset", query: upd(23, func(m *dnswire.Message) { m.DeleteRRset(name20, dnswire.TypePTR) })},
		{name: "after-delete-nxdomain", query: ask(24, "20.2.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "update-delete-name-absent", query: upd(25, func(m *dnswire.Message) { m.DeleteRRset(name20, dnswire.TypeANY) })},
		{name: "update-out-of-zone-formerr", query: upd(26, func(m *dnswire.Message) {
			m.AddRR(dnswire.Record{Name: dnswire.MustName("1.3.0.192.in-addr.arpa"), Type: dnswire.TypePTR, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.PTRData{Target: dnswire.MustName("h.example.edu")}})
		})},
		{name: "update-non-ptr-notimp", query: upd(27, func(m *dnswire.Message) {
			m.AddRR(dnswire.Record{Name: name20, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.AData{Addr: [4]byte{192, 0, 2, 20}}})
		})},
		{name: "update-prerequisite-notimp", query: upd(28, func(m *dnswire.Message) {
			m.Answers = append(m.Answers, dnswire.Record{Name: name20, Type: dnswire.TypeANY, Class: dnswire.ClassANY,
				Data: dnswire.RawData{RType: dnswire.TypeANY}})
		})},
		{name: "update-unknown-zone-refused", query: wire(dnswire.NewUpdate(29, dnswire.MustName("3.0.192.in-addr.arpa")))},
		{name: "update-zone-section-not-soa-formerr", query: patched(wire(dnswire.NewUpdate(30, dnswire.MustName("2.0.192.in-addr.arpa"))),
			func(w []byte) []byte { w[len(w)-3] = byte(dnswire.TypeA); return w })},
		{name: "update-policy-refused", setup: func(s *Server) { s.SetUpdatePolicy(UpdatesRefused) },
			query: upd(31, func(m *dnswire.Message) { m.DeleteRRset(name20, dnswire.TypeANY) })},

		{name: "udp-small-untouched", udp: true, query: ptr10},
		{name: "udp-truncated-over-512", udp: true, query: ask(40, "77.9.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "message-level-over-512-whole", query: ask(41, "77.9.0.192.in-addr.arpa", dnswire.TypePTR)},
		{name: "udp-axfr-refused", udp: true, query: ask(42, "2.0.192.in-addr.arpa", dnswire.TypeAXFR)},
		{name: "udp-garbage-dropped", udp: true, query: []byte{0xFF}},

		{name: "injected-servfail", setup: func(s *Server) { s.SetInjector(faultsim.New(nil, 7, faultsim.Profile{ServFailRate: 1})) }, query: ptr10},
		{name: "injected-servfail-update", query: upd(50, func(m *dnswire.Message) { m.DeleteRRset(name20, dnswire.TypeANY) })},
		{name: "injected-drop", setup: func(s *Server) { s.SetInjector(dropping(1, 7)) }, query: ptr10},
		{name: "injection-off-again", setup: func(s *Server) { s.SetInjector(nil) }, query: ptr10},
	}
	return s, steps
}

func runGolden(t *testing.T) (lines []string, stats ServerStats) {
	s, steps := goldenSteps(t)
	for _, st := range steps {
		if st.setup != nil {
			st.setup(s)
		}
		query := append([]byte(nil), st.query...)
		var reply []byte
		if st.udp {
			reply = s.HandleQueryUDP(query)
		} else {
			reply = s.HandleQuery(query)
		}
		if string(query) != string(st.query) {
			t.Errorf("%s: the server wrote into the query buffer", st.name)
		}
		out := "-"
		if reply != nil {
			out = hex.EncodeToString(reply)
		}
		lines = append(lines, fmt.Sprintf("%s\t%s\t%s", st.name, hex.EncodeToString(st.query), out))
	}
	return lines, s.Stats()
}

func TestGoldenWireBytes(t *testing.T) {
	path := filepath.Join("testdata", "golden_replies.txt")
	got, stats := runGolden(t)
	got = append(got, fmt.Sprintf("stats\t%+v\t-", stats))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden file holds %d rows, the step list makes %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	// Every class of reply the table claims to pin is really in it.
	for _, rcode := range []string{"8400", "8403", "8005", "8001", "9004", "8002", "ac00", "8603"} {
		found := false
		for _, row := range want {
			if f := strings.Split(row, "\t"); len(f) == 3 && len(f[2]) >= 8 && strings.HasPrefix(f[2][4:], rcode) {
				found = true
			}
		}
		if !found {
			t.Errorf("no golden reply carries flags %s", rcode)
		}
	}
}

// TestStatsOnEveryQueryBranch pins which ServerStats counters each golden
// step ticks: every branch a query or UPDATE can take is tallied exactly
// once, in the counter named for its outcome — including AXFR over UDP,
// which is answered REFUSED, and the drops, which answer nothing.
func TestStatsOnEveryQueryBranch(t *testing.T) {
	s, steps := goldenSteps(t)
	want := map[string]string{
		"found-ptr":                           "Queries NoError",
		"found-ptr-target-compresses":         "Queries NoError",
		"found-any-two-records":               "Queries NoError",
		"nxdomain":                            "Queries NXDomain",
		"nxdomain-below-a-name":               "Queries NXDomain",
		"nodata-a-at-ptr-name":                "Queries NoError",
		"nodata-ptr-at-a-name":                "Queries NoError",
		"apex-soa":                            "Queries NoError",
		"apex-ns":                             "Queries NoError",
		"apex-any":                            "Queries NoError",
		"apex-nodata":                         "Queries NoError",
		"refused-no-zone":                     "Queries Refused",
		"refused-root":                        "Queries Refused",
		"case-folded-rd-echoed":               "Queries NoError",
		"reserved-flag-bits-dropped":          "Queries NoError",
		"question-name-through-pointer":       "Queries Refused",
		"question-label-with-dot-dropped":     "Queries Refused",
		"formerr-no-question":                 "Queries FormErr",
		"formerr-two-questions":               "Queries FormErr",
		"notimp-opcode-2":                     "Queries NotImp",
		"dropped-response-bit":                "Queries Malformed",
		"dropped-garbage":                     "Queries Malformed",
		"dropped-trailing-byte":               "Queries Malformed",
		"non-in-class":                        "Queries NoError",
		"update-add":                          "Queries Updates",
		"after-update-found":                  "Queries NoError",
		"after-update-serial":                 "Queries NoError",
		"update-delete-rrset":                 "Queries Updates",
		"after-delete-nxdomain":               "Queries NXDomain",
		"update-delete-name-absent":           "Queries Updates",
		"update-out-of-zone-formerr":          "Queries FormErr",
		"update-non-ptr-notimp":               "Queries NotImp",
		"update-prerequisite-notimp":          "Queries NotImp",
		"update-unknown-zone-refused":         "Queries Refused",
		"update-zone-section-not-soa-formerr": "Queries FormErr",
		"update-policy-refused":               "Queries Refused",
		"udp-small-untouched":                 "Queries NoError",
		"udp-truncated-over-512":              "Queries NXDomain",
		"message-level-over-512-whole":        "Queries NXDomain",
		"udp-axfr-refused":                    "Queries Refused",
		"udp-garbage-dropped":                 "Queries Malformed",
		"injected-servfail":                   "Queries ServFail",
		"injected-servfail-update":            "Queries ServFail",
		"injected-drop":                       "Queries Dropped",
		"injection-off-again":                 "Queries NoError",
	}
	if len(want) != len(steps) {
		t.Fatalf("the table names %d steps, the step list has %d", len(want), len(steps))
	}
	var prev ServerStats
	for _, st := range steps {
		if st.setup != nil {
			st.setup(s)
		}
		if st.udp {
			s.HandleQueryUDP(st.query)
		} else {
			s.HandleQuery(st.query)
		}
		cur := s.Stats()
		got := statsDelta(prev, cur)
		prev = cur
		if w := want[st.name]; got != w {
			t.Errorf("%s ticked %s, want %s", st.name, got, w)
		}
	}
}

// statsDelta names the counters that grew from a to b, with the amount
// when it is more than one.
func statsDelta(a, b ServerStats) string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < av.NumField(); i++ {
		switch d := bv.Field(i).Uint() - av.Field(i).Uint(); {
		case d == 1:
			out = append(out, av.Type().Field(i).Name)
		case d > 1:
			out = append(out, fmt.Sprintf("%s+%d", av.Type().Field(i).Name, d))
		}
	}
	return strings.Join(out, " ")
}
