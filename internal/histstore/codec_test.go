package histstore

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, {0x01}, []byte("hello"), make([]byte, 4096)}
	for _, kind := range []byte{frameSnap, frameBase, frameDelta} {
		for _, body := range bodies {
			enc := appendFrame(nil, kind, body)
			fr, rest, err := decodeFrame(enc)
			if err != nil {
				t.Fatalf("decodeFrame(kind=%c, %d bytes): %v", kind, len(body), err)
			}
			if fr.kind != kind || len(fr.body) != len(body) {
				t.Fatalf("round trip: got kind=%c len=%d, want kind=%c len=%d",
					fr.kind, len(fr.body), kind, len(body))
			}
			if len(rest) != 0 {
				t.Fatalf("decodeFrame left %d bytes", len(rest))
			}
		}
	}
}

func TestFrameChaining(t *testing.T) {
	enc := appendFrame(nil, frameSnap, []byte("a"))
	enc = appendFrame(enc, frameBase, []byte("bb"))
	enc = appendFrame(enc, frameDelta, []byte("ccc"))
	var kinds []byte
	for len(enc) > 0 {
		fr, rest, err := decodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, fr.kind)
		enc = rest
	}
	if string(kinds) != "SBL" {
		t.Fatalf("frame sequence %q, want SBL", kinds)
	}
}

func TestFrameCorruption(t *testing.T) {
	enc := appendFrame(nil, frameBase, []byte("some block body bytes"))

	// Every single-byte flip must be rejected (bad kind, bad length, CRC
	// mismatch) — never accepted, never a panic.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		if _, _, err := decodeFrame(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}

	// Every truncation must be errTruncated so Open treats a torn tail as
	// recoverable.
	for n := 0; n < len(enc); n++ {
		_, _, err := decodeFrame(enc[:n])
		if err != errTruncated {
			t.Fatalf("truncation to %d bytes: got %v, want errTruncated", n, err)
		}
	}
}

func TestSnapBodyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		snap int
		unix int64
	}{{0, 0}, {1, 1577836800}, {365, -62135596800}, {100000, 1<<40 + 7}} {
		snap, unix, err := decodeSnapBody(appendSnapBody(nil, tc.snap, tc.unix))
		if err != nil {
			t.Fatal(err)
		}
		if snap != tc.snap || unix != tc.unix {
			t.Fatalf("got (%d, %d), want (%d, %d)", snap, unix, tc.snap, tc.unix)
		}
	}
}

func TestBaseBodyRoundTrip(t *testing.T) {
	p := dnswire.MustPrefix("192.0.2.0/24")
	entries := []baseEntry{
		{Octet: 0, Name: dnswire.MustName("brians-iphone.lan.example.net")},
		{Octet: 1, Name: dnswire.MustName("brians-ipad.lan.example.net")},
		{Octet: 17, Name: dnswire.MustName("printer.example.net")},
		{Octet: 255, Name: dnswire.MustName("broadcast.example.net")},
	}
	body := appendBaseBody(nil, 42, p, entries)
	snap, gp, got, err := decodeBaseBody(body, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap != 42 || gp != p {
		t.Fatalf("header (%d, %s), want (42, %s)", snap, gp, p)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], entries[i])
		}
	}
}

func TestDeltaBodyRoundTrip(t *testing.T) {
	p := dnswire.MustPrefix("198.51.100.0/24")
	entries := []deltaEntry{
		{kind: scanengine.RecordAdded, octet: 3, new: dnswire.MustName("brians-iphone.lan.example.net")},
		{kind: scanengine.RecordChanged, octet: 9,
			old: dnswire.MustName("host-9.dyn.example.net"),
			new: dnswire.MustName("host-9b.dyn.example.net")},
		{kind: scanengine.RecordRemoved, octet: 200, old: dnswire.MustName("gone.example.net")},
	}
	body := appendDeltaBody(nil, 7, p, entries)
	snap, gp, got, err := decodeDeltaBody(body, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap != 7 || gp != p {
		t.Fatalf("header (%d, %s), want (7, %s)", snap, gp, p)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], entries[i])
		}
	}
}

func TestDecodeBaseBodyRejects(t *testing.T) {
	p := dnswire.MustPrefix("192.0.2.0/24")
	good := appendBaseBody(nil, 1, p, []baseEntry{
		{Octet: 5, Name: dnswire.MustName("a.example.net")},
		{Octet: 6, Name: dnswire.MustName("b.example.net")},
	})
	if _, _, _, err := decodeBaseBody(good, nil, nil); err != nil {
		t.Fatalf("control: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
		"truncated":      good[:len(good)-3],
	}
	// An absurd count with no entries behind it.
	huge := appendBaseBody(nil, 1, p, nil)
	huge[len(huge)-1] = 0xff // count uvarint -> would continue; malformed
	cases["bad count varint"] = huge
	for name, body := range cases {
		if _, _, _, err := decodeBaseBody(body, nil, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeDeltaBodyRejectsKind(t *testing.T) {
	p := dnswire.MustPrefix("192.0.2.0/24")
	body := appendDeltaBody(nil, 1, p, []deltaEntry{
		{kind: scanengine.RecordAdded, octet: 5, new: dnswire.MustName("a.example.net")},
	})
	// The kind byte is right after snap(1)+prefix(3)+count(1).
	body[5] = 9
	if _, _, _, err := decodeDeltaBody(body, nil, nil); err == nil {
		t.Fatal("unknown change kind accepted")
	}
}

func TestNamePrefixCompression(t *testing.T) {
	// A block of 200 near-identical names must encode far below the naive
	// size: that is the point of the prefix compression.
	p := dnswire.MustPrefix("203.0.113.0/24")
	var entries []baseEntry
	naive := 0
	for i := 0; i < 200; i++ {
		name := dnswire.MustName(
			"host-" + strings.Repeat("x", 40) + "-" + string(rune('a'+i%26)) + ".dsl.example.net")
		entries = append(entries, baseEntry{Octet: byte(i), Name: name})
		naive += len(name)
	}
	body := appendBaseBody(nil, 0, p, entries)
	if len(body) > naive/2 {
		t.Fatalf("compressed body %d bytes vs %d naive — compression ineffective", len(body), naive)
	}
	_, _, got, err := decodeBaseBody(body, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d corrupted by compression: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestTokensOf(t *testing.T) {
	cases := []struct {
		name string
		want []string
	}{
		{"brians-iphone.lan.example.net", []string{"brians", "brian", "iphone"}},
		{"brian.example.net", []string{"brian"}},
		{"bs.example.net", []string{"bs"}}, // too short to stem
		{"a--b.example.net", []string{"a", "b"}},
		{"printer.example.net", []string{"printer"}},
	}
	for _, tc := range cases {
		got := appendTokens(nil, dnswire.MustName(tc.name))
		if len(got) != len(tc.want) {
			t.Errorf("appendTokens(%s) = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("appendTokens(%s) = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// TestDecodeAgainstStateReusesHeldNames requires a frame decoded against
// the block's state before it to allocate only the names new to the
// block: a rebase that changes nothing, and a delta's removed and changed
// names, take the state's own strings. The decoded entries must equal the
// body's whatever state they are decoded against, one whose names differ
// from the body's in a byte or in length included.
func TestDecodeAgainstStateReusesHeldNames(t *testing.T) {
	p := dnswire.MustPrefix("192.0.2.0/24")
	// Names of their own, as a decoded state holds them, not literals.
	name := func(s string) dnswire.Name { return dnswire.Name(strings.Clone(s)) }
	st := blockState{
		{Octet: 3, Name: name("brians-iphone.lan.example.net")},
		{Octet: 7, Name: name("brians-ipad.lan.example.net")},
		{Octet: 9, Name: name("emmas-air.lan.example.net")},
		{Octet: 200, Name: name("printer.example.net")},
	}
	same := func(a, b dnswire.Name) bool { return unsafe.StringData(string(a)) == unsafe.StringData(string(b)) }

	rebase := appendBaseBody(nil, 5, p, st)
	dst := make([]baseEntry, 0, len(st))
	var got []baseEntry
	if allocs := testing.AllocsPerRun(20, func() {
		_, _, got, _ = decodeBaseBody(rebase, st, dst)
	}); allocs != 0 {
		t.Errorf("an unchanged rebase allocated %.1f times, want 0", allocs)
	}
	for i := range st {
		if got[i] != st[i] || !same(got[i].Name, st[i].Name) {
			t.Fatalf("rebase entry %d = %+v, not the state's own %+v", i, got[i], st[i])
		}
	}
	moved := slices.Clone(st)
	moved[2].Name = name("emmas-air.lan.example.org")
	rebase = appendBaseBody(nil, 5, p, moved)
	if allocs := testing.AllocsPerRun(20, func() {
		_, _, got, _ = decodeBaseBody(rebase, st, dst)
	}); allocs != 1 {
		t.Errorf("a rebase changing one name allocated %.1f times, want 1", allocs)
	}
	if !slices.Equal(got, moved) || !same(got[3].Name, st[3].Name) {
		t.Fatalf("rebase decoded %+v, want %+v with the state's unchanged names", got, moved)
	}

	removals := appendDeltaBody(nil, 6, p, []deltaEntry{
		{kind: scanengine.RecordRemoved, octet: 3, old: st[0].Name},
		{kind: scanengine.RecordRemoved, octet: 200, old: st[3].Name},
	})
	ents := make([]deltaEntry, 0, 4)
	var gotD []deltaEntry
	if allocs := testing.AllocsPerRun(20, func() {
		_, _, gotD, _ = decodeDeltaBody(removals, st, ents)
	}); allocs != 0 {
		t.Errorf("a delta of removals allocated %.1f times, want 0", allocs)
	}
	if !same(gotD[0].old, st[0].Name) || !same(gotD[1].old, st[3].Name) {
		t.Fatalf("removals decoded %+v, not the state's own names", gotD)
	}
	changes := []deltaEntry{
		{kind: scanengine.RecordAdded, octet: 4, new: name("brians-note9.lan.example.net")},
		{kind: scanengine.RecordChanged, octet: 7, old: st[1].Name, new: name("brians-ipad-2.lan.example.net")},
	}
	body := appendDeltaBody(nil, 6, p, changes)
	if allocs := testing.AllocsPerRun(20, func() {
		_, _, gotD, _ = decodeDeltaBody(body, st, ents)
	}); allocs != 2 {
		t.Errorf("a delta bringing in two names allocated %.1f times, want 2", allocs)
	}
	if !slices.Equal(gotD, changes) || !same(gotD[1].old, st[1].Name) {
		t.Fatalf("delta decoded %+v, want %+v with the state's old name", gotD, changes)
	}

	// Against a state that holds other names at the same octets — one a
	// byte off, one longer, one shorter — the body's names come out.
	other := blockState{
		{Octet: 3, Name: name("brians-iphone.lan.example.nex")},
		{Octet: 7, Name: name("brians-ipad.lan.example.net.x")},
		{Octet: 9, Name: name("emmas-air")},
	}
	if _, _, got, err := decodeBaseBody(appendBaseBody(nil, 5, p, st), other, nil); err != nil || !slices.Equal(got, st) {
		t.Fatalf("rebase against another state = %+v, %v; want %+v", got, err, st)
	}
	if _, _, gotD, err := decodeDeltaBody(body, other, nil); err != nil || !slices.Equal(gotD, changes) {
		t.Fatalf("delta against another state = %+v, %v; want %+v", gotD, err, changes)
	}
}
