package dnswire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// countingWriter records each Write it is given.
type countingWriter struct{ writes [][]byte }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// FuzzReadFramed: a stream is bytes a peer sends, and its length prefixes
// may lie. Reading frame after frame, every call gives an error or exactly
// the octets its prefix frames, and never consumes a byte past that frame;
// whatever ReadFramed accepts, WriteFramed sends back as the same stream
// bytes in one Write.
func FuzzReadFramed(f *testing.F) {
	frame := func(declared int, body []byte) []byte {
		return append(binary.BigEndian.AppendUint16(nil, uint16(declared)), body...)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(frame(0, nil))                               // zero length
	f.Add(frame(0, []byte("next")))                    // zero length, then bytes
	f.Add(frame(9, []byte("short")))                   // longer than the stream
	f.Add(frame(0xFFFF, nil))                          // the largest frame, then EOF
	f.Add(frame(0xFFFF, bytes.Repeat([]byte{7}, 300))) // the largest frame, cut short
	f.Add(append(frame(3, []byte("abc")), frame(2, []byte("de"))...))
	f.Add(append(append(frame(1, []byte("a")), frame(0, nil)...), frame(1, []byte("b"))...))
	f.Add(append(frame(4, []byte("abcd")), 0x00)) // a frame, then half a prefix
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for off := 0; ; {
			msg, err := ReadFramed(r)
			consumed := len(stream) - r.Len()
			limit := len(stream) // how far this frame may reach
			if len(stream)-off >= 2 {
				limit = min(limit, off+2+int(binary.BigEndian.Uint16(stream[off:])))
			}
			if consumed > limit {
				t.Fatalf("frame at %d: read to %d, past the frame's end %d", off, consumed, limit)
			}
			if err != nil {
				if msg != nil {
					t.Fatalf("frame at %d: %d octets with error %v", off, len(msg), err)
				}
				return
			}
			if len(msg) == 0 || consumed != off+2+len(msg) || !bytes.Equal(msg, stream[off+2:consumed]) {
				t.Fatalf("frame at %d: got %d octets, consumed to %d", off, len(msg), consumed)
			}
			var w countingWriter
			if err := WriteFramed(&w, msg); err != nil {
				t.Fatal(err)
			}
			if len(w.writes) != 1 || !bytes.Equal(w.writes[0], stream[off:consumed]) {
				t.Fatalf("frame at %d: WriteFramed made %d writes, not the frame read", off, len(w.writes))
			}
			off = consumed
		}
	})
}

func TestWriteFramedRefusesOversizedMessages(t *testing.T) {
	var w countingWriter
	if err := WriteFramed(&w, make([]byte, 0x10000)); err == nil || len(w.writes) != 0 {
		t.Fatalf("a 65536-octet message: err %v, %d writes", err, len(w.writes))
	}
}
