package dnswire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Owner appends the record's owner name, in canonical presentation form:
// the decoded form that OwnerIs compares in place, which only tests read.
func (r RecordView) Owner(dst []byte) []byte {
	name, _, _ := walkName(dst, r.msg, r.nameOff, true)
	return name
}

// FuzzNameWalk holds the in-place readers to the decoding one, from any
// offset of any buffer: walkName's two modes give the same verdict and end
// offset; on a name they accept, nameIs says what comparing the decoded
// form says — for the fuzzer's asked name, for the decoded form itself and
// for it with one octet changed — and plainName only accepts a name whose
// bytes are what writing its decoded form gives. Both name writers agree
// on any text: appendUncompressedName is appendCompressedName with nothing
// to compress against.
func FuzzNameWalk(f *testing.F) {
	for _, seed := range hostileSeeds(f) {
		f.Add(seed, 12, []byte("10.2.0.192.in-addr.arpa."))
	}
	f.Add([]byte{2, 'A', 'b', 0}, 0, []byte("ab."))
	f.Add([]byte{1, 'x', 0, 2, 'A', 'b', 0xC0, 0}, 3, []byte("ab.x."))
	f.Add([]byte{2, 0xC3, 0x89, 0}, 0, []byte("\xc3\xa9."))
	f.Add([]byte{3, 0xE2, 0x84, 0xAA, 0}, 0, []byte("k."))
	f.Add([]byte{2, 0xFF, 'A', 0}, 0, []byte("\xef\xbf\xbda."))
	f.Add([]byte{3, 'a', '.', 'b', 0}, 0, []byte("a.b."))
	f.Add([]byte{0}, 0, []byte("."))
	f.Fuzz(func(t *testing.T, msg []byte, off int, asked []byte) {
		checkWriters(t, asked)
		if off < 0 || off > len(msg) {
			return
		}
		var nb [MaxNameLen + 1]byte
		name, end, err := walkName(nb[:0], msg, off, true)
		kept, vend, verr := walkName(nb[:0], msg, off, false)
		if !errors.Is(verr, err) || vend != end || len(kept) != 0 {
			t.Fatalf("walkName(%x, %d): decoding gives %d, %v; validating gives %d, %v, %q", msg, off, end, err, vend, verr, kept)
		}
		if err != nil {
			return
		}
		decoded := string(name)
		for _, s := range [][]byte{asked, []byte(decoded), []byte(strings.ToUpper(decoded)), flipped(decoded, len(asked))} {
			if got, want := nameIs(msg, off, s), decoded == string(s); got != want {
				t.Fatalf("nameIs(%x, %d, %q) = %v; the name decodes to %q", msg, off, s, got, decoded)
			}
		}
		if pend, ok := plainName(msg, off); ok {
			wire, err := appendUncompressedName(nil, name)
			if err != nil || pend != end || !bytes.Equal(wire, msg[off:end]) {
				t.Fatalf("plainName(%x, %d) accepts a name that writes as %x (%v), ending %d not %d", msg, off, wire, err, pend, end)
			}
		}
	})
}

// flipped is s with the octet at i (mod its length) changed.
func flipped(s string, i int) []byte {
	b := []byte(s)
	b[i%len(b)] ^= 0x20
	return b
}

// checkWriters: both name writers give the same bytes and the same error
// for s, with nothing to compress against.
func checkWriters(t *testing.T, s []byte) {
	t.Helper()
	var cmap compressionMap
	want, werr := appendCompressedName([]byte{9}, s, &cmap)
	got, err := appendUncompressedName([]byte{9}, s)
	if !errors.Is(err, werr) || !bytes.Equal(got, want) {
		t.Fatalf("name %q: appendUncompressedName gives %x, %v; appendCompressedName %x, %v", s, got, err, want, werr)
	}
}

// TestPlainNameEchoesAsWritten: a question copied by Questions is the
// question Question writes from its decoded name, compression table
// included — a record after it compresses the same way — and a question
// plainName refuses is decoded and written.
func TestPlainNameEchoesAsWritten(t *testing.T) {
	target := Record{Name: MustName("10.2.0.192.in-addr.arpa"), Type: TypePTR, Class: ClassIN, TTL: 300,
		Data: PTRData{Target: MustName("host.2.0.192.in-addr.arpa")}}
	query := func(name ...byte) []byte {
		return append(append([]byte{0, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, name...), 0, 12, 0, 1)
	}
	for _, tc := range []struct {
		name  string
		query []byte
		plain bool
	}{
		{"canonical", query(2, '1', '0', 1, '2', 1, '0', 3, '1', '9', '2', 7, 'i', 'n', '-', 'a', 'd', 'd', 'r', 4, 'a', 'r', 'p', 'a', 0), true},
		{"root", query(0), true},
		{"upper-case", query(2, '1', '0', 1, '2', 1, '0', 3, '1', '9', '2', 7, 'I', 'N', '-', 'A', 'D', 'D', 'R', 4, 'a', 'r', 'p', 'a', 0), false},
		{"pointer", query(2, '1', '0', 0xC0, 5), false},
		{"dot-in-label", query(3, '1', '.', '0', 0), false},
		{"high-octet", query(2, 0xC3, 0xA9, 0), false},
	} {
		v, err := Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := plainName(tc.query, headerLen); ok != tc.plain {
			t.Errorf("%s: plainName = %v, want %v", tc.name, ok, tc.plain)
		}
		var echo, write Builder
		got := echo.Record(echo.Questions(echo.Begin(nil), &v), SectionAnswer, target)
		var nb [MaxNameLen + 1]byte
		name, qt, qc := v.Question(nb[:0])
		want := write.Record(write.Question(write.Begin(nil), name, qt, qc), SectionAnswer, target)
		if !bytes.Equal(got, want) || echo != write {
			t.Errorf("%s: echoed %x, written %x", tc.name, got, want)
		}
	}
}

// TestPackedMatchesRecord: a packed record placed after a question leaves
// the bytes and the compression table Record leaves — a record written
// after it compresses the same way — wherever the owner sits in the
// question, and Packed declines what it cannot place.
func TestPackedMatchesRecord(t *testing.T) {
	soa := func(owner, mname, rname string) Record {
		return Record{Name: Name(owner), Type: TypeSOA, Class: ClassIN, TTL: 300, Data: SOAData{
			MName: Name(mname), RName: Name(rname), Serial: 7, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 60}}
	}
	next := Record{Name: MustName("ns1.example.edu"), Type: TypeA, Class: ClassIN, TTL: 60, Data: AData{Addr: [4]byte{192, 0, 2, 1}}}
	deep := strings.Repeat("l.", 23)
	for _, tc := range []struct {
		name     string
		rr       Record
		question string
		packed   bool
	}{
		{"below-owner", soa("2.0.192.in-addr.arpa.", "ns1.example.edu.", "hostmaster.example.edu."), "99.2.0.192.in-addr.arpa.", true},
		{"at-owner", soa("2.0.192.in-addr.arpa.", "ns1.example.edu.", "hostmaster.example.edu."), "2.0.192.in-addr.arpa.", true},
		{"names-share-owner-suffixes", soa("6.0.192.in-addr.arpa.", "ns.in-addr.arpa.", "arpa."), "99.6.0.192.in-addr.arpa.", true},
		{"rname-is-mname", soa("x.", "ns.example.", "ns.example."), "a.b.x.", true},
		{"upper-case-names", soa("7.0.192.in-addr.arpa.", "NS.Example.EDU.", "Host.example.edu."), "99.7.0.192.in-addr.arpa.", true},
		{"ptr", Record{Name: MustName("example.edu"), Type: TypePTR, Class: ClassIN, TTL: 1, Data: PTRData{Target: MustName("h.example.com")}}, "a.example.edu.", true},
		{"a-record", Record{Name: MustName("example.edu"), Type: TypeA, Class: ClassIN, TTL: 1, Data: AData{Addr: [4]byte{1, 2, 3, 4}}}, "a.example.edu.", true},
		{"twenty-three-labels", soa("2.0.192.in-addr.arpa.", "ns1.example.edu.", "hostmaster.example.edu."), strings.Repeat("l.", 18) + "2.0.192.in-addr.arpa.", false},
		{"table-just-fits", soa("x.", "n.", "m."), deep[:2*21] + "x.", true},
		{"table-full", soa("x.", "n.", "m."), deep + "x.", false},
		{"mname-inside", soa("5.0.192.in-addr.arpa.", "ns.5.0.192.in-addr.arpa.", "h.example."), "99.5.0.192.in-addr.arpa.", false},
		{"rname-is-owner", soa("5.0.192.in-addr.arpa.", "ns.example.", "5.0.192.in-addr.arpa."), "99.5.0.192.in-addr.arpa.", false},
		{"root-owner", soa(".", "a.root-servers.net.", "n.example."), "com.", false},
		{"other-owner", soa("3.0.192.in-addr.arpa.", "ns1.example.edu.", "h.example.edu."), "99.2.0.192.in-addr.arpa.", false},
		{"owner-case-differs", soa("2.0.192.IN-ADDR.arpa.", "ns1.example.edu.", "h.example.edu."), "99.2.0.192.in-addr.arpa.", false},
	} {
		p := PackRecord(tc.rr)
		var pb, rb Builder
		start := pb.Question(pb.Begin(nil), []byte(tc.question), TypePTR, ClassIN)
		got, ok := pb.Packed(start, SectionAuthority, p)
		if ok != tc.packed {
			t.Errorf("%s: Packed placed it: %v, want %v", tc.name, ok, tc.packed)
		}
		if !ok {
			if !bytes.Equal(got, start) {
				t.Errorf("%s: a declined Packed changed the message", tc.name)
			}
			got = pb.Record(got, SectionAuthority, tc.rr)
		}
		want := rb.Record(rb.Question(rb.Begin(nil), []byte(tc.question), TypePTR, ClassIN), SectionAuthority, tc.rr)
		if !bytes.Equal(got, want) || pb != rb {
			t.Fatalf("%s: packed\n%x\nrecord\n%x", tc.name, got, want)
		}
		got, want = pb.Record(got, SectionAdditional, next), rb.Record(want, SectionAdditional, next)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: a record after it: packed\n%x\nrecord\n%x", tc.name, got, want)
		}
		if _, err := Unmarshal(mustFinish(t, &pb, got)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	// Packing costs the PackedRecord and one slice; placing it, nothing.
	rr := soa("2.0.192.in-addr.arpa.", "ns1.example.edu.", "hostmaster.example.edu.")
	if got := testing.AllocsPerRun(100, func() { PackRecord(rr) }); got > 2 {
		t.Errorf("PackRecord allocates %.1f objects, budget 2", got)
	}
	packed, scratch := PackRecord(rr), make([]byte, 0, 512)
	if got := testing.AllocsPerRun(100, func() {
		var b Builder
		if _, ok := b.Packed(b.Question(b.Begin(scratch), []byte("99.2.0.192.in-addr.arpa."), TypePTR, ClassIN), SectionAuthority, packed); !ok {
			t.Fatal("Packed declined")
		}
	}); got != 0 {
		t.Errorf("Packed allocates %.1f objects", got)
	}
	// Only right after the one question.
	p := PackRecord(soa("x.", "n.", "m."))
	var b Builder
	buf := b.Question(b.Begin(nil), []byte("a.x."), TypePTR, ClassIN)
	buf = b.Record(buf, SectionAnswer, next)
	if _, ok := b.Packed(buf, SectionAuthority, p); ok {
		t.Error("Packed placed a record after an answer")
	}
	b = Builder{}
	buf = b.Question(b.Question(b.Begin(nil), []byte("a.x."), TypePTR, ClassIN), []byte("b.x."), TypePTR, ClassIN)
	if _, ok := b.Packed(buf, SectionAuthority, p); ok {
		t.Error("Packed placed a record after two questions")
	}
}

func mustFinish(t *testing.T, b *Builder, buf []byte) []byte {
	t.Helper()
	out, err := b.Finish(buf, Header{ID: 1, Response: true})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The query writer is the Builder's, byte for byte and error for error,
// for either form of name.
func TestAppendQueryMatchesBuilder(t *testing.T) {
	for _, name := range []string{".", "10.2.0.192.in-addr.arpa.", "no-trailing-dot.example", "a..b.", strings.Repeat("x", 64) + ".", strings.Repeat("abc.", 64)} {
		var b Builder
		want, werr := b.Finish(b.Question(b.Begin(nil), []byte(name), TypePTR, ClassIN), Header{ID: 0x1234})
		got, err := AppendQuery(nil, 0x1234, Name(name), TypePTR)
		gotb, errb := AppendQuery(make([]byte, 3), 0x1234, []byte(name), TypePTR)
		if !errors.Is(err, werr) || !errors.Is(errb, werr) || !bytes.Equal(got, want) || !bytes.Equal(gotb, want) {
			t.Errorf("%q: AppendQuery %x, %v / %x, %v; Builder %x, %v", name, got, err, gotb, errb, want, werr)
		}
	}
}
