package dnsserver

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdnsprivacy/internal/dnswire"
)

// negativeStep is one query against the negative-answer servers, in order:
// setup runs first and may change a zone, bumping its serial.
type negativeStep struct {
	name  string
	root  bool // ask the server whose only zone is the root
	udp   bool // through HandleQueryUDP
	setup func()
	query []byte
}

// negativeSteps builds two servers and the queries the negative-answer
// golden file pins. The zones differ in where their SOA names lie: outside
// the zone (A, and D, whose origin is one label), outside but sharing the
// origin's suffixes (C), written with upper case (E), inside the zone (B),
// and the root zone, which holds every name.
func negativeSteps(t testing.TB) (srv, rootSrv *Server, steps []negativeStep) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	zone := func(s *Server, origin string, ns, mbox dnswire.Name) *Zone {
		z := NewZone(ZoneConfig{Origin: dnswire.MustName(origin), PrimaryNS: ns, Mbox: mbox})
		s.AddZone(z)
		return z
	}
	srv, rootSrv = NewServer(), NewServer()
	a := zone(srv, "2.0.192.in-addr.arpa", dnswire.MustName("ns1.example.edu"), dnswire.MustName("hostmaster.example.edu"))
	b := zone(srv, "5.0.192.in-addr.arpa", dnswire.MustName("ns.5.0.192.in-addr.arpa"), dnswire.MustName("hostmaster.5.0.192.in-addr.arpa"))
	zone(srv, "6.0.192.in-addr.arpa", dnswire.MustName("ns.in-addr.arpa"), dnswire.MustName("arpa"))
	zone(srv, "x", dnswire.MustName("ns1.example.edu"), dnswire.MustName("hostmaster.x-ray.example"))
	zone(srv, "7.0.192.in-addr.arpa", dnswire.Name("NS.Example.EDU."), dnswire.Name("Host.example.edu."))
	root := zone(rootSrv, ".", dnswire.MustName("a.root-servers.net"), dnswire.MustName("nstld.verisign-grs.com"))
	must(a.SetPTR(dnswire.MustName("10.2.0.192.in-addr.arpa"), dnswire.MustName("brians-iphone.dyn.example.edu")))
	must(b.SetPTR(dnswire.MustName("10.5.0.192.in-addr.arpa"), dnswire.MustName("printer.5.0.192.in-addr.arpa")))
	must(root.SetPTR(dnswire.MustName("10.2.0.192.in-addr.arpa"), dnswire.MustName("host.example.edu")))

	ask := func(id uint16, name string, qtype dnswire.Type) []byte {
		w, err := dnswire.NewQuery(id, dnswire.Name(name), qtype).Marshal()
		must(err)
		return w
	}
	// raw is a one-question PTR query whose name is the given wire bytes.
	raw := func(id uint16, name ...byte) []byte {
		w := []byte{byte(id >> 8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
		return append(append(w, name...), 0, 12, 0, 1)
	}
	label := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	labels := func(ss ...string) []byte {
		var out []byte
		for _, s := range ss {
			out = append(out, label(s)...)
		}
		return out
	}
	suffixA := labels("2", "0", "192", "in-addr", "arpa")
	deep := strings.Repeat("l.", 30) + "2.0.192.in-addr.arpa."
	longest := strings.Repeat(strings.Repeat("z", 62)+".", 3) + strings.Repeat("y", 43) + ".2.0.192.in-addr.arpa." // 255 octets on the wire
	longer := strings.Repeat(strings.Repeat("z", 62)+".", 3) + strings.Repeat("y", 44) + ".2.0.192.in-addr.arpa."  // 256: parses, does not re-encode

	steps = []negativeStep{
		{name: "a-nxdomain", query: ask(1, "99.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "a-nxdomain-below-a-name", query: ask(2, "x.10.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "a-nodata", query: ask(3, "10.2.0.192.in-addr.arpa.", dnswire.TypeA)},
		{name: "a-apex-nodata", query: ask(4, "2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "a-upper-case-qname", query: raw(5, append(labels("99", "2", "0", "192", "IN-ADDR", "ARPA"), 0)...)},
		{name: "a-mixed-case-found", query: raw(6, append(labels("10", "2", "0", "192", "In-Addr", "arpA"), 0)...)},
		{name: "a-thirty-five-labels", query: ask(7, deep, dnswire.TypePTR)},
		{name: "a-255-octet-qname", query: ask(8, longest, dnswire.TypePTR)},
		{name: "a-256-octet-qname", query: raw(9, append(labels(strings.Split(strings.TrimSuffix(longer, "."), ".")...), 0)...)},
		{name: "a-label-with-dot", query: raw(10, append(append(label("9.9"), suffixA...), 0)...)},
		{name: "a-label-with-high-octet", query: raw(11, append(append(label("h\xc3\xa9"), suffixA...), 0)...)},
		{name: "a-label-with-invalid-utf8", query: raw(12, append(append(label("\xff\xfe"), suffixA...), 0)...)},
		{name: "a-nxdomain-udp", udp: true, query: ask(13, "99.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "a-non-in-class", query: func() []byte { w := ask(14, "99.2.0.192.in-addr.arpa.", dnswire.TypePTR); w[len(w)-1] = 3; return w }()},

		{name: "b-nxdomain", query: ask(20, "99.5.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "b-nodata", query: ask(21, "10.5.0.192.in-addr.arpa.", dnswire.TypeA)},
		{name: "b-apex-nodata", query: ask(22, "5.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "b-nxdomain-under-mname", query: ask(23, "x.ns.5.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "b-nxdomain-at-rname", query: ask(24, "hostmaster.5.0.192.in-addr.arpa.", dnswire.TypeA)},
		{name: "b-upper-case-qname", query: raw(25, append(labels("99", "5", "0", "192", "IN-ADDR", "ARPA"), 0)...)},

		{name: "c-nxdomain-soa-names-share-suffixes", query: ask(30, "99.6.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "c-apex-nodata", query: ask(31, "6.0.192.in-addr.arpa.", dnswire.TypeA)},

		// A query's only earlier bytes are its header: an ID of 0x0178
		// reads as the label "x", and the flags' zero octet ends the name.
		{name: "d-qname-through-pointer", query: raw(0x0178, 2, '9', '9', 0xC0, 0)},
		{name: "d-upper-case-qname-through-pointer", query: raw(0x0158, 2, '9', '9', 0xC0, 0)},
		{name: "d-apex-nodata", query: ask(40, "x.", dnswire.TypeA)},

		{name: "e-upper-case-soa-names", query: ask(45, "99.7.0.192.in-addr.arpa.", dnswire.TypePTR)},

		{name: "root-nxdomain", root: true, query: ask(50, "99.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "root-nodata", root: true, query: ask(51, "10.2.0.192.in-addr.arpa.", dnswire.TypeA)},
		{name: "root-nxdomain-tld", root: true, query: ask(52, "com.", dnswire.TypePTR)},
		{name: "root-nxdomain-near-mname", root: true, query: ask(53, "b.root-servers.net.", dnswire.TypePTR)},
		{name: "root-apex-nodata", root: true, query: ask(54, ".", dnswire.TypePTR)},
		{name: "root-upper-case-qname", root: true, query: raw(55, append(labels("NET"), 0)...)},

		{name: "serial-before", query: ask(60, "99.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "serial-after-set", setup: func() {
			must(a.SetPTR(dnswire.MustName("50.2.0.192.in-addr.arpa"), dnswire.MustName("laptop.example.edu")))
		}, query: ask(61, "99.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "serial-after-set-nodata", query: ask(62, "50.2.0.192.in-addr.arpa.", dnswire.TypeA)},
		{name: "serial-after-remove", setup: func() { a.RemovePTR(dnswire.MustName("50.2.0.192.in-addr.arpa")) },
			query: ask(63, "50.2.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "serial-inside-zone-after-set", setup: func() {
			must(b.SetA(dnswire.MustName("10.5.0.192.in-addr.arpa"), dnswire.MustIPv4("192.0.5.10")))
		}, query: ask(64, "99.5.0.192.in-addr.arpa.", dnswire.TypePTR)},
		{name: "serial-root-after-set", root: true, setup: func() {
			must(root.SetPTR(dnswire.MustName("11.2.0.192.in-addr.arpa"), dnswire.MustName("host2.example.edu")))
		}, query: ask(65, "com.", dnswire.TypePTR)},
	}
	return srv, rootSrv, steps
}

// TestGoldenNegativeAnswers pins the bytes of NXDOMAIN and NODATA replies,
// the answer to nearly every probe of a sweep, across zones whose SOA
// names lie outside, around and inside them, question names in upper case
// or through a pointer, and serial bumps between absences. The file was
// recorded from the responder that wrote every SOA through
// dnswire.Builder; re-record it only on purpose:
// go test ./internal/dnsserver -run TestGoldenNegativeAnswers -update-golden.
func TestGoldenNegativeAnswers(t *testing.T) {
	path := filepath.Join("testdata", "golden_negative.txt")
	srv, rootSrv, steps := negativeSteps(t)
	var got []string
	for _, st := range steps {
		if st.setup != nil {
			st.setup()
		}
		s := srv
		if st.root {
			s = rootSrv
		}
		var reply []byte
		if st.udp {
			reply = s.HandleQueryUDP(st.query)
		} else {
			reply = s.HandleQuery(st.query)
		}
		out := "-"
		if reply != nil {
			out = hex.EncodeToString(reply)
		}
		got = append(got, fmt.Sprintf("%s\t%s\t%s", st.name, hex.EncodeToString(st.query), out))
	}
	got = append(got, fmt.Sprintf("stats\t%+v\t%+v", srv.Stats(), rootSrv.Stats()))
	if *updateGolden {
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
	// The file holds what it claims to: absences of both kinds from every
	// zone, authoritative and carrying one authority record.
	for _, prefix := range []string{"a-nxdomain", "a-nodata", "b-nxdomain", "b-nodata", "c-nxdomain", "d-qname", "e-upper", "root-nxdomain", "root-nodata", "serial-after-set"} {
		found := false
		for _, row := range want {
			if f := strings.Split(row, "\t"); strings.HasPrefix(f[0], prefix) && len(f[2]) > 24 && f[2][4:6] == "84" && f[2][16:20] == "0001" {
				found = true
			}
		}
		if !found {
			t.Errorf("no golden row %s* carries an authoritative answer with one authority record", prefix)
		}
	}
}

// TestAbsentAnswersFollowTheSerial: the encoded SOA is built by the first
// negative answer after a change and cleared by the next change, under the
// zone's lock, so a reply never carries a serial older than the one the
// zone had when the query arrived — here with four goroutines asking for
// absent names while a fifth changes the zone (run it with -race).
func TestAbsentAnswersFollowTheSerial(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	serial := func() uint32 { return z.soaRecord().Data.(dnswire.SOAData).Serial }
	stop := make(chan struct{})
	changed := make(chan struct{})
	go func() {
		defer close(changed)
		name := dnswire.MustName("50.2.0.192.in-addr.arpa")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				if err := z.SetPTR(name, dnswire.MustName("laptop.example.edu")); err != nil {
					t.Error(err)
					return
				}
			} else {
				z.RemovePTR(name)
			}
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			query, err := dnswire.AppendQuery(nil, uint16(g), dnswire.ReverseName(dnswire.IPv4{192, 0, 2, byte(100 + g)}), dnswire.TypePTR)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 2000; i++ {
				before := serial()
				reply, err := dnswire.Unmarshal(s.HandleQuery(query))
				if err != nil {
					errs <- err
					return
				}
				if len(reply.Authorities) != 1 || reply.Header.RCode != dnswire.RCodeNXDomain {
					errs <- fmt.Errorf("reply %v", reply)
					return
				}
				got := reply.Authorities[0].Data.(dnswire.SOAData).Serial
				if after := serial(); got < before || got > after {
					errs <- fmt.Errorf("reply carries serial %d, the zone went from %d to %d around it", got, before, after)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-changed
}
