package rdnsserve

import (
	"encoding/base64"
	"testing"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
)

// FuzzCursor: a cursor is bytes a client sends back, so decoding never
// panics and never yields a resume point outside the store's domain; what
// the daemon minted decodes to exactly what it encoded; and a cursor minted
// for one query is invalid_cursor under any other.
func FuzzCursor(f *testing.F) {
	bind := cursorBind("range", "10.0.1.0/24", "2020-03-01", "")
	f.Add("", bind, bind+1, 0, uint32(0), 0, int64(0), 0)
	f.Add(encodeRangeCursor(bind, histstore.RangeCursor{Snap: 3, Block: 0x0a000100, Octet: 255}, 1583020800), bind, ^bind, 3, uint32(0x0a000100), 255, int64(1583020800), 0)
	f.Add(encodeOffsetCursor(bind, 1000), bind, uint64(0), 1<<40, ^uint32(0), 0, int64(-1), 1000)
	f.Add("!!", bind, bind, -1, uint32(1), 256, int64(1)<<62, -1)
	for _, raw := range []string{
		"r1:zz:0:0:0:0", "r1:0000000000000000:-1:0:0:0", "r1:0000000000000000:0:0:256:0", "r1:0000000000000000:0:4294967296:0:0",
		"r1:0000000000000000:99999999999999999999:0:0:0", "r1:0000000000000000:0:0:0", "r1:0000000000000000:0:0:0:0 trailing",
		"r1:0000000000000000:+3:0:0:0", "r1:0000000000000000:03:0:0:0", "r1:0000000000000000:0:0:0:-0",
		"r1:000000000000000A:0:0:0:0", "r1:00000000000000000:0:0:0:0", "r1:0:0:0:0:0",
		"n1:0000000000000000:-5", "n1:0000000000000000:+5", "n1:0000000000000000:5x", "n1:0000000000000000:05", "n1:0000000000000000:", "n1::1", "n2:0000000000000000:1", "r1:\n",
	} {
		f.Add(base64.RawURLEncoding.EncodeToString([]byte(raw)), uint64(0), uint64(1), 0, uint32(0), 0, int64(0), 0)
	}
	f.Fuzz(func(t *testing.T, s string, bind, other uint64, snap int, block uint32, octet int, toUnix int64, off int) {
		// Arbitrary bytes: an error, or a point inside the domain that the
		// daemon mints as exactly s.
		if cur, to, aerr := decodeRangeCursor(s, bind); aerr == nil {
			if cur.Snap < 0 || cur.Octet < 0 || cur.Octet > 255 {
				t.Fatalf("decodeRangeCursor(%q) accepted %+v", s, cur)
			}
			if again := encodeRangeCursor(bind, cur, to); again != s {
				t.Fatalf("decodeRangeCursor(%q) accepted a cursor the daemon mints as %q", s, again)
			}
		} else if aerr.code != rdnsclient.CodeInvalidCursor {
			t.Fatalf("decodeRangeCursor(%q): code %q", s, aerr.code)
		}
		if got, aerr := decodeOffsetCursor(s, bind); aerr == nil {
			if got < 0 {
				t.Fatalf("decodeOffsetCursor(%q) accepted %d", s, got)
			}
			if again := encodeOffsetCursor(bind, got); again != s {
				t.Fatalf("decodeOffsetCursor(%q) accepted a cursor the daemon mints as %q", s, again)
			}
		} else if aerr.code != rdnsclient.CodeInvalidCursor {
			t.Fatalf("decodeOffsetCursor(%q): code %q", s, aerr.code)
		}

		// Minted cursors: round trip under their bind, refused under another
		// and by the other kind's decoder.
		cur := histstore.RangeCursor{Snap: snap, Block: block, Octet: octet}
		rc := encodeRangeCursor(bind, cur, toUnix)
		got, gotTo, aerr := decodeRangeCursor(rc, bind)
		if valid := snap >= 0 && octet >= 0 && octet <= 255; valid != (aerr == nil) {
			t.Fatalf("range cursor %+v: valid %v, decode error %v", cur, valid, aerr)
		} else if valid && (got != cur || gotTo != toUnix) {
			t.Fatalf("range cursor round trip: sent %+v/%d, got %+v/%d", cur, toUnix, got, gotTo)
		}
		oc := encodeOffsetCursor(bind, off)
		gotOff, aerr := decodeOffsetCursor(oc, bind)
		if valid := off >= 0; valid != (aerr == nil) {
			t.Fatalf("offset cursor %d: valid %v, decode error %v", off, valid, aerr)
		} else if valid && gotOff != off {
			t.Fatalf("offset cursor round trip: sent %d, got %d", off, gotOff)
		}
		if other != bind {
			if _, _, aerr := decodeRangeCursor(rc, other); aerr == nil || aerr.code != rdnsclient.CodeInvalidCursor {
				t.Fatalf("range cursor minted under %016x accepted under %016x", bind, other)
			}
			if _, aerr := decodeOffsetCursor(oc, other); aerr == nil || aerr.code != rdnsclient.CodeInvalidCursor {
				t.Fatalf("offset cursor minted under %016x accepted under %016x", bind, other)
			}
		}
		if _, aerr := decodeOffsetCursor(rc, bind); aerr == nil {
			t.Fatalf("a range cursor decoded as an offset cursor: %q", rc)
		}
		if _, _, aerr := decodeRangeCursor(oc, bind); aerr == nil {
			t.Fatalf("an offset cursor decoded as a range cursor: %q", oc)
		}
	})
}
