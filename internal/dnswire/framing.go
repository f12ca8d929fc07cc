package dnswire

import (
	"encoding/binary"
	"errors"
	"io"
)

// Stream transports (TCP, and the AXFR that rides it) carry each message
// behind a two-octet big-endian length (RFC 1035 §4.2.2).

// ReadFramed reads one length-prefixed message from a stream and reads
// nothing past it, so frames sent back to back come out one per call. A
// zero length is an error; a stream that ends inside a frame is
// io.ErrUnexpectedEOF, and one that ends before it is io.EOF.
func ReadFramed(r io.Reader) ([]byte, error) {
	var prefix [2]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(prefix[:])
	if n == 0 {
		return nil, errors.New("dnswire: zero-length frame")
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return msg, nil
}

// WriteFramed writes msg as one frame, its length prefix and the message
// in a single Write.
func WriteFramed(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return errors.New("dnswire: message exceeds the 65535-octet frame limit")
	}
	frame := binary.BigEndian.AppendUint16(make([]byte, 0, 2+len(msg)), uint16(len(msg)))
	_, err := w.Write(append(frame, msg...))
	return err
}
