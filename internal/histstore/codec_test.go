package histstore

import (
	"strings"
	"testing"

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
		snap, unix, err := decodeSnapBody(encodeSnapBody(tc.snap, tc.unix))
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
		{octet: 0, name: dnswire.MustName("brians-iphone.lan.example.net")},
		{octet: 1, name: dnswire.MustName("brians-ipad.lan.example.net")},
		{octet: 17, name: dnswire.MustName("printer.example.net")},
		{octet: 255, name: dnswire.MustName("broadcast.example.net")},
	}
	body := encodeBaseBody(42, p, entries)
	snap, gp, got, err := decodeBaseBody(body, nil)
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
	body := encodeDeltaBody(7, p, entries)
	snap, gp, got, err := decodeDeltaBody(body, nil)
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
	good := encodeBaseBody(1, p, []baseEntry{
		{octet: 5, name: dnswire.MustName("a.example.net")},
		{octet: 6, name: dnswire.MustName("b.example.net")},
	})
	if _, _, _, err := decodeBaseBody(good, nil); err != nil {
		t.Fatalf("control: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
		"truncated":      good[:len(good)-3],
	}
	// An absurd count with no entries behind it.
	huge := encodeBaseBody(1, p, nil)
	huge[len(huge)-1] = 0xff // count uvarint -> would continue; malformed
	cases["bad count varint"] = huge
	for name, body := range cases {
		if _, _, _, err := decodeBaseBody(body, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeDeltaBodyRejectsKind(t *testing.T) {
	p := dnswire.MustPrefix("192.0.2.0/24")
	body := encodeDeltaBody(1, p, []deltaEntry{
		{kind: scanengine.RecordAdded, octet: 5, new: dnswire.MustName("a.example.net")},
	})
	// The kind byte is right after snap(1)+prefix(3)+count(1).
	body[5] = 9
	if _, _, _, err := decodeDeltaBody(body, nil); err == nil {
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
		entries = append(entries, baseEntry{octet: byte(i), name: name})
		naive += len(name)
	}
	body := encodeBaseBody(0, p, entries)
	if len(body) > naive/2 {
		t.Fatalf("compressed body %d bytes vs %d naive — compression ineffective", len(body), naive)
	}
	_, _, got, err := decodeBaseBody(body, nil)
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
