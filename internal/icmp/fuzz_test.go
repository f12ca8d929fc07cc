package icmp

import (
	"bytes"
	"testing"
)

// FuzzParse: Parse never panics on bytes off the network, and accepts only
// what it can give back — a message whose checksum verifies and that
// survives AppendTo and a second Parse unchanged. (The bytes themselves
// need not come back: a checksum field of 0xffff where AppendTo writes
// 0x0000 verifies too, testdata/fuzz/FuzzParse/checksum-ffff-for-zero.)
func FuzzParse(f *testing.F) {
	f.Add(Echo{ID: 0xBEEF, Seq: 42, Payload: []byte("probe-data")}.AppendTo(nil))
	f.Add(Echo{Reply: true, ID: 1, Seq: 0xFFFF, Payload: []byte("odd")}.AppendTo(nil))
	f.Add(Echo{ID: 0x7e57, Payload: make([]byte, 1472)}.AppendTo(nil))
	f.Fuzz(func(t *testing.T, wire []byte) {
		e, err := Parse(wire)
		if err != nil {
			if e.Reply || e.ID != 0 || e.Seq != 0 || e.Payload != nil {
				t.Fatalf("Parse failed with %v and still returned %+v", err, e)
			}
			return
		}
		if Checksum(wire) != 0 {
			t.Fatalf("accepted % x, whose checksum does not verify", wire)
		}
		again, err := Parse(e.AppendTo(nil))
		if err != nil {
			t.Fatalf("% x parsed to %+v, which does not parse back: %v", wire, e, err)
		}
		if again.Reply != e.Reply || again.ID != e.ID || again.Seq != e.Seq || !bytes.Equal(again.Payload, e.Payload) {
			t.Fatalf("% x parsed to %+v, then to %+v", wire, e, again)
		}
		if want := wire[8:]; !bytes.Equal(e.Payload, want) || (len(want) > 0 && &e.Payload[0] == &want[0]) {
			t.Fatalf("payload % x of % x is not a copy of its tail", e.Payload, wire)
		}
	})
}
