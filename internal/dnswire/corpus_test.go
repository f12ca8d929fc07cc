package dnswire

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateCorpus re-records testdata/unmarshal_corpus.txt from whatever
// Unmarshal this tree has. The checked-in file was recorded from the
// materialising decoder that predates the in-place reader, so a plain
// `go test` proves the one-walk parser reproduces its verdicts, error
// texts and decoded forms exactly.
var updateCorpus = flag.Bool("update-corpus", false, "re-record testdata/unmarshal_corpus.txt")

const corpusFile = "unmarshal_corpus.txt"

// hostileSeeds are the hand-made inputs behind the trust boundary: every
// way a remote peer can lie about a message's shape.
func hostileSeeds(t testing.TB) [][]byte {
	valid := func(m *Message) []byte {
		wire, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	rev := MustName("10.2.0.192.in-addr.arpa")
	query := valid(NewQuery(7, rev, TypePTR))
	found := NewResponse(NewQuery(7, rev, TypePTR), RCodeNoError)
	found.Header.Authoritative = true
	found.Answers = []Record{{Name: rev, Type: TypePTR, Class: ClassIN, TTL: 300,
		Data: PTRData{Target: MustName("brians-iphone.dyn.campus-a.edu")}}}
	nx := NewResponse(NewQuery(8, rev, TypePTR), RCodeNXDomain)
	nx.Authorities = []Record{{Name: MustName("2.0.192.in-addr.arpa"), Type: TypeSOA, Class: ClassIN, TTL: 300,
		Data: SOAData{MName: MustName("ns1.campus-a.edu"), RName: MustName("hostmaster.campus-a.edu"),
			Serial: 9, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 60}}}
	mixed := NewResponse(NewQuery(9, MustName("host.example.com"), TypeANY), RCodeNoError)
	mixed.Answers = []Record{
		{Name: MustName("host.example.com"), Type: TypeA, Class: ClassIN, TTL: 60, Data: AData{Addr: [4]byte{192, 0, 2, 1}}},
		{Name: MustName("host.example.com"), Type: TypeTXT, Class: ClassIN, TTL: 60, Data: TXTData{Strings: []string{"v=1", ""}}},
		{Name: MustName("alias.example.com"), Type: TypeCNAME, Class: ClassIN, TTL: 60, Data: CNAMEData{Target: MustName("host.example.com")}},
		{Name: MustName("example.com"), Type: TypeNS, Class: ClassIN, TTL: 60, Data: NSData{Target: MustName("ns.example.com")}},
		{Name: MustName("example.com"), Type: Type(99), Class: ClassIN, TTL: 60, Data: RawData{RType: Type(99), Bytes: []byte{1, 2, 3}}},
	}
	upd := NewUpdate(10, MustName("2.0.192.in-addr.arpa"))
	upd.AddRR(Record{Name: rev, Type: TypePTR, Class: ClassIN, TTL: 300, Data: PTRData{Target: MustName("h.example.edu")}})
	upd.DeleteRRset(rev, TypePTR)
	upd.DeleteName(rev)

	hdr := func(qd, an, ns, ar uint16) []byte {
		return []byte{0, 1, 0x80, 0, byte(qd >> 8), byte(qd), byte(an >> 8), byte(an), byte(ns >> 8), byte(ns), byte(ar >> 8), byte(ar)}
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	longLabel := append([]byte{64}, []byte(strings.Repeat("x", 64))...)
	var longName []byte // five 63-octet labels: 320 octets of name
	for i := 0; i < 5; i++ {
		longName = append(longName, 63)
		longName = append(longName, []byte(strings.Repeat("y", 63))...)
	}
	var edgeName []byte // 255 octets of labels before the root: the decoder's own limit
	for i := 0; i < 3; i++ {
		edgeName = append(edgeName, 63)
		edgeName = append(edgeName, []byte(strings.Repeat("z", 63))...)
	}
	edgeName = append(edgeName, 62)
	edgeName = append(edgeName, []byte(strings.Repeat("z", 62))...)
	// chainMsg(n) is a message whose second record's owner name is reached
	// through n compression pointers, each to the one before, parked in the
	// opaque RDATA of the first record: 31 is inside the hop budget, 40 is not.
	chainMsg := func(n int) []byte {
		rdata := []byte{1, 'a', 0}
		base := 12 + 1 + 10 // header, root owner, fixed part
		for i := 0; i < n-1; i++ {
			target := base
			if i > 0 {
				target = base + 3 + 2*(i-1)
			}
			rdata = append(rdata, 0xC0|byte(target>>8), byte(target))
		}
		last := base + 3 + 2*(n-2)
		msg := append(hdr(0, 2, 0, 0), 0)
		msg = append(msg, 0, 99, 0, 1, 0, 0, 0, 60, byte(len(rdata)>>8), byte(len(rdata)))
		msg = append(msg, rdata...)
		msg = append(msg, 0xC0|byte(last>>8), byte(last))
		return append(msg, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4)
	}
	qtail := []byte{0, 12, 0, 1}
	rrHead := func(t Type, c Class, rdlen int) []byte {
		return []byte{byte(t >> 8), byte(t), byte(c >> 8), byte(c), 0, 0, 0, 60, byte(rdlen >> 8), byte(rdlen)}
	}

	return [][]byte{
		query, valid(found), valid(nx), valid(mixed), valid(upd),
		{}, {0}, hdr(0, 0, 0, 0)[:11], hdr(0, 0, 0, 0),
		// Lying section counts.
		hdr(1, 0, 0, 0), hdr(0, 1, 0, 0), hdr(0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF),
		cat(hdr(2, 0, 0, 0), query[12:]), cat(hdr(1, 1, 0, 0), query[12:]),
		cat(hdr(0, 0, 0, 0), query[12:]),
		// Trailing bytes.
		cat(query, []byte{0}), cat(valid(found), []byte("trailing")),
		// Compression pointers: self, forward, two-step loop, into the header, around the hop budget, cut short.
		cat(hdr(1, 0, 0, 0), []byte{0xC0, 12}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{0xC0, 14, 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{0xC0, 14, 0xC0, 12}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{0xC0, 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{1, 'a', 0xC0, 4}, qtail),
		chainMsg(31), chainMsg(32), chainMsg(40),
		cat(hdr(1, 0, 0, 0), []byte{0xC0}),
		cat(hdr(1, 0, 0, 0), []byte{1, 'a', 0xC0}),
		// Label and name lengths, reserved label types.
		cat(hdr(1, 0, 0, 0), longLabel, []byte{0}, qtail),
		cat(hdr(1, 0, 0, 0), longName, []byte{0}, qtail),
		cat(hdr(1, 0, 0, 0), edgeName, []byte{0}, qtail),
		cat(hdr(1, 0, 0, 0), edgeName, []byte{1, 'q', 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{0x80, 'x', 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{0x40, 'x', 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{5, 'a', 'b'}),
		cat(hdr(1, 0, 0, 0), []byte{3, 'c', 'o', 'm'}),
		cat(hdr(1, 0, 0, 0), []byte{3, 'c', 'o', 'm', 0, 0, 12}),
		// Case, dots inside labels, octets outside ASCII, the root.
		cat(hdr(1, 0, 0, 0), []byte{3, 'W', 'w', 'W', 7, 'E', 'x', 'a', 'm', 'p', 'l', 'e', 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{3, 'a', '.', 'b', 1, '.', 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{4, 0xC3, 0x89, 0xFF, 'Z', 2, 0xE2, 0x84, 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{3, 0xE2, 0x84, 0xAA, 2, 0xC4, 0xB0, 0}, qtail),
		cat(hdr(1, 0, 0, 0), []byte{0}, qtail),
		// Records: short fixed part, RDATA overrun, per-type length lies, UPDATE-style empty RDATA.
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeA, ClassIN, 4)[:9], []byte{0, 0}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeA, ClassIN, 9), []byte{1, 2, 3, 4}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeA, ClassIN, 3), []byte{1, 2, 3}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeA, ClassIN, 4), []byte{1, 2, 3, 4}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypePTR, ClassIN, 0)),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypePTR, ClassANY, 0)),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypePTR, ClassNONE, 0)),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypePTR, ClassIN, 4), []byte{1, 'a', 0, 0}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypePTR, ClassIN, 2), []byte{0xC0, 12}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeNS, ClassIN, 2), []byte{1, 'a', 0}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeCNAME, ClassIN, 1), []byte{0}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeSOA, ClassIN, 21), []byte{0, 0}, make([]byte, 19)),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeSOA, ClassIN, 22), []byte{0, 0}, make([]byte, 20)),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeSOA, ClassIN, 2), []byte{0, 0}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeTXT, ClassIN, 0)),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeTXT, ClassIN, 1), []byte{0}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeTXT, ClassIN, 3), []byte{5, 'a', 'b'}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(TypeTXT, ClassIN, 4), []byte{1, 'a', 1, 'b'}),
		cat(hdr(0, 1, 0, 0), []byte{0}, rrHead(Type(99), ClassIN, 0)),
		cat(hdr(0, 0, 1, 1), []byte{0}, rrHead(Type(41), Class(4096), 0), []byte{0}, rrHead(TypeAAAA, ClassIN, 16), make([]byte, 16)),
	}
}

// corpusInputs is the hostile seed list plus seeded mutations of its valid
// members: bit flips, truncations and count rewrites reach far deeper into
// the decoder than noise does.
func corpusInputs(t testing.TB) [][]byte {
	seeds := hostileSeeds(t)
	out := append([][]byte(nil), seeds...)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 700; i++ {
		base := seeds[rng.Intn(5)]
		m := append([]byte(nil), base...)
		for f := 1 + rng.Intn(3); f > 0; f-- {
			switch rng.Intn(4) {
			case 0:
				m[rng.Intn(len(m))] ^= byte(1 << rng.Intn(8))
			case 1:
				m[rng.Intn(len(m))] = byte(rng.Intn(256))
			case 2:
				m[4+rng.Intn(8)] = byte(rng.Intn(3)) // a section count octet
			case 3:
				if pos := 12 + rng.Intn(len(m)-12); pos+1 < len(m) {
					m[pos], m[pos+1] = 0xC0, byte(rng.Intn(len(m))) // a pointer somewhere
				}
			}
		}
		if rng.Intn(5) == 0 {
			m = m[:rng.Intn(len(m))+1]
		}
		out = append(out, m)
	}
	return out
}

// dumpMessage renders every decoded field; names and data go through %q so
// folding and replacement of odd octets are part of the record.
func dumpMessage(m *Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", m.Header)
	for _, q := range m.Questions {
		fmt.Fprintf(&b, " Q(%q %d %d)", string(q.Name), q.Type, q.Class)
	}
	for i, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			fmt.Fprintf(&b, " R%d(%q %d %d %d %#v)", i, string(rr.Name), rr.Type, rr.Class, rr.TTL, rr.Data)
		}
	}
	return b.String()
}

func corpusVerdict(wire []byte) string {
	m, err := Unmarshal(wire)
	if err != nil {
		return "ERR " + err.Error()
	}
	return "OK " + dumpMessage(m)
}

func TestUnmarshalCorpusReproducesRecordedDecoder(t *testing.T) {
	path := filepath.Join("testdata", corpusFile)
	if *updateCorpus {
		var b strings.Builder
		for _, in := range corpusInputs(t) {
			fmt.Fprintf(&b, "%s\t%s\n", hex.EncodeToString(in), corpusVerdict(in))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	cases, accepted := 0, 0
	for sc.Scan() {
		input, want, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("line %d: no tab", cases+1)
		}
		wire, err := hex.DecodeString(input)
		if err != nil {
			t.Fatalf("line %d: %v", cases+1, err)
		}
		cases++
		if strings.HasPrefix(want, "OK ") {
			accepted++
		}
		if got := corpusVerdict(wire); got != want {
			t.Errorf("line %d (%s):\n got %s\nwant %s", cases, input, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The generator is part of the record: a corpus that no longer matches
	// it was edited by hand or recorded from other inputs.
	if inputs := corpusInputs(t); len(inputs) != cases {
		t.Fatalf("corpus holds %d cases, generator makes %d", cases, len(inputs))
	}
	if accepted < cases/10 || accepted > cases*9/10 {
		t.Fatalf("corpus is lopsided: %d of %d inputs accepted", accepted, cases)
	}
}
