package dnswire

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The scanner parses answers from arbitrary remote servers; the server
// parses queries from arbitrary clients. Neither may panic on hostile
// input, whatever the bytes.

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(buf []byte) bool {
		// Unmarshal may error; it must not panic.
		_, _ = Unmarshal(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalNeverPanicsOnMutatedMessages(t *testing.T) {
	// Start from valid messages and flip bytes: these inputs reach much
	// deeper into the decoder than pure noise.
	rng := rand.New(rand.NewSource(1))
	base := &Message{
		Header: Header{ID: 7, Response: true, Authoritative: true},
		Questions: []Question{{
			Name: MustName("10.2.0.192.in-addr.arpa"), Type: TypePTR, Class: ClassIN,
		}},
		Answers: []Record{{
			Name: MustName("10.2.0.192.in-addr.arpa"), Type: TypePTR,
			Class: ClassIN, TTL: 300,
			Data: PTRData{Target: MustName("brians-iphone.dyn.campus-a.edu")},
		}},
		Authorities: []Record{{
			Name: MustName("2.0.192.in-addr.arpa"), Type: TypeSOA,
			Class: ClassIN, TTL: 300,
			Data: SOAData{
				MName: MustName("ns1.campus-a.edu"),
				RName: MustName("hostmaster.campus-a.edu"),
			},
		}},
	}
	wire, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		mutated := append([]byte(nil), wire...)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			mutated = mutated[:rng.Intn(len(mutated))+1]
		}
		_, _ = Unmarshal(mutated) // must not panic
	}
}

func TestRoundTripSurvivesReMarshal(t *testing.T) {
	// Whatever Unmarshal accepts must marshal back and decode to the
	// same structure (idempotence over the decoded form).
	base := NewQuery(42, MustName("34.216.184.93.in-addr.arpa"), TypePTR)
	resp := NewResponse(base, RCodeNoError)
	resp.Answers = append(resp.Answers, Record{
		Name: MustName("34.216.184.93.in-addr.arpa"), Type: TypePTR,
		Class: ClassIN, TTL: 60,
		Data: PTRData{Target: MustName("example-host.example.com")},
	})
	wire1, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decoded1, err := Unmarshal(wire1)
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := decoded1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decoded2, err := Unmarshal(wire2)
	if err != nil {
		t.Fatal(err)
	}
	if decoded1.Header != decoded2.Header {
		t.Fatalf("headers differ: %+v vs %+v", decoded1.Header, decoded2.Header)
	}
	if len(decoded1.Answers) != len(decoded2.Answers) {
		t.Fatalf("answers differ")
	}
	if decoded1.Answers[0].String() != decoded2.Answers[0].String() {
		t.Fatalf("answer differs: %s vs %s", decoded1.Answers[0], decoded2.Answers[0])
	}
}

func TestNameEncodingPropertyRoundTrip(t *testing.T) {
	// Arbitrary label content (LDH subset) survives encode/decode.
	f := func(raw []byte) bool {
		// Build a plausible name out of the fuzz input.
		const chars = "abcdefghijklmnopqrstuvwxyz0123456789-"
		label := make([]byte, 0, 20)
		for _, b := range raw {
			label = append(label, chars[int(b)%len(chars)])
			if len(label) >= 20 {
				break
			}
		}
		if len(label) == 0 {
			return true
		}
		name, err := ParseName(string(label) + ".example.com")
		if err != nil {
			return true
		}
		buf, err := AppendName(nil, name)
		if err != nil {
			return false
		}
		got, _, err := decodeName(buf, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshal is the codec's trust boundary under a fuzzer: whatever the
// bytes, the one parser must not panic; Parse and Unmarshal are the same
// walk and must agree; what the in-place View hands out must be what the
// materialized Message holds; and what Unmarshal accepts must survive
// Marshal∘Unmarshal unchanged whenever it can be marshalled at all.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range hostileSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := Unmarshal(wire)
		v, perr := Parse(wire)
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("Unmarshal says %v, Parse says %v", err, perr)
		}
		if err != nil {
			return
		}
		checkViewMatchesMessage(t, &v, m)
		again, err := m.Marshal()
		if err != nil {
			return // e.g. a label that decoded to "." re-encodes as an empty label
		}
		m2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshalled message does not parse: %v\n%x", err, again)
		}
		if got, want := dumpMessage(m2), dumpMessage(m); got != want {
			t.Fatalf("round trip changed the message:\n got %s\nwant %s", got, want)
		}
	})
}

// checkViewMatchesMessage compares every accessor of the in-place reader
// with the materialized form of the same bytes.
func checkViewMatchesMessage(t *testing.T, v *View, m *Message) {
	t.Helper()
	var nb [MaxNameLen + 1]byte
	if v.Header != m.Header {
		t.Fatalf("View header %+v, Message header %+v", v.Header, m.Header)
	}
	if v.Count(SectionQuestion) != len(m.Questions) {
		t.Fatalf("View has %d questions, Message %d", v.Count(SectionQuestion), len(m.Questions))
	}
	if len(m.Questions) > 0 {
		name, qt, qc := v.Question(nb[:0])
		if q := m.Questions[0]; Name(name) != q.Name || qt != q.Type || qc != q.Class {
			t.Fatalf("View question %q %v %v, Message %v", name, qt, qc, q)
		}
	}
	for sec := SectionAnswer; sec <= SectionAdditional; sec++ {
		want := *m.section(sec)
		it := v.Records(sec)
		for i, rr := range want {
			rv, ok := it.Next()
			if !ok {
				t.Fatalf("section %d: View ran out at record %d of %d", sec, i, len(want))
			}
			if Name(rv.Owner(nb[:0])) != rr.Name || rv.Type != rr.Type || rv.Class != rr.Class || rv.TTL != rr.TTL {
				t.Fatalf("section %d record %d: View %q %v %v %d, Message %v", sec, i, rv.Owner(nb[:0]), rv.Type, rv.Class, rv.TTL, rr)
			}
			target, ok := rv.Target(nb[:0])
			switch d := rr.Data.(type) {
			case PTRData:
				if !ok || Name(target) != d.Target {
					t.Fatalf("section %d record %d: View target %q %v, Message %q", sec, i, target, ok, d.Target)
				}
			case NSData:
				if !ok || Name(target) != d.Target {
					t.Fatalf("section %d record %d: View target %q %v, Message %q", sec, i, target, ok, d.Target)
				}
			case CNAMEData:
				if !ok || Name(target) != d.Target {
					t.Fatalf("section %d record %d: View target %q %v, Message %q", sec, i, target, ok, d.Target)
				}
			default:
				if ok {
					t.Fatalf("section %d record %d: View found a target name in %T", sec, i, rr.Data)
				}
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("section %d: View has more than the Message's %d records", sec, len(want))
		}
	}
}

// FuzzDecodeName drives the one name reader from any offset of any buffer:
// it must not panic, must stay within its limits, and what it accepts must
// re-encode (when it can be encoded at all) to something that decodes to
// the same name.
func FuzzDecodeName(f *testing.F) {
	for _, seed := range hostileSeeds(f) {
		f.Add(seed, 12)
	}
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{0xC0, 0x02, 0xC0, 0x00}, 2)
	f.Add([]byte{3, 'W', 'w', 'W', 0}, 0)
	f.Fuzz(func(t *testing.T, msg []byte, off int) {
		if off < 0 || off > len(msg) {
			return
		}
		name, end, err := decodeName(msg, off)
		if err != nil {
			return
		}
		if end <= off || end > len(msg) {
			t.Fatalf("decodeName(%x, %d) ended at %d", msg, off, end)
		}
		wire, err := AppendName(nil, name)
		if err != nil {
			return
		}
		again, _, err := decodeName(wire, 0)
		if err != nil || again != name {
			t.Fatalf("decoded %q, re-encoded and decoded %q (%v)", name, again, err)
		}
	})
}

// The corpus's accepted and rejected inputs also go through the in-place
// reader's accessors, so a plain `go test` checks View against Message on
// every recorded case, not only under the fuzzer.
func TestViewMatchesMessageOnCorpus(t *testing.T) {
	for _, wire := range corpusInputs(t) {
		m, err := Unmarshal(wire)
		v, perr := Parse(wire)
		if (err == nil) != (perr == nil) {
			t.Fatalf("%x: Unmarshal says %v, Parse says %v", wire, err, perr)
		}
		if err == nil {
			checkViewMatchesMessage(t, &v, m)
		}
	}
}

// Reading a reply in place and writing a query into reused storage are the
// two halves of a probe's codec work, and allocate nothing.
func TestParseAndBuilderDoNotAllocate(t *testing.T) {
	seeds := hostileSeeds(t)
	nx := seeds[2]
	var nb [MaxNameLen + 1]byte
	if got := testing.AllocsPerRun(100, func() {
		v, err := Parse(nx)
		if err != nil {
			t.Fatal(err)
		}
		name, _, _ := v.Question(nb[:0])
		for it := v.Records(SectionAuthority); ; {
			rr, ok := it.Next()
			if !ok {
				break
			}
			name = rr.Owner(nb[:0])
		}
		_ = name
	}); got != 0 {
		t.Errorf("Parse and a walk over the View allocate %.1f objects", got)
	}
	buf := make([]byte, 0, 64)
	want := seeds[0]
	if got := testing.AllocsPerRun(100, func() {
		var rev [32]byte
		var b Builder
		out, err := b.Finish(b.Question(b.Begin(buf), AppendReverseName(rev[:0], IPv4{192, 0, 2, 10}), TypePTR, ClassIN), Header{ID: 7})
		if err != nil || string(out) != string(want) {
			t.Fatalf("built %x (%v), want %x", out, err, want)
		}
	}); got != 0 {
		t.Errorf("building a query into reused storage allocates %.1f objects", got)
	}
}
