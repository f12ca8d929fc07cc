// Package icmp implements the ICMP echo wire format of RFC 792 and a
// zmap-style sweep prober.
//
// The paper uses Zmap ICMP scans to detect when client devices join and
// leave a network (Section 6.1). This package reproduces that capability
// against the simulated fabric: the prober emits real encoded echo requests,
// simulated networks answer (or not, when the operator blocks pings on
// ingress, as Enterprise-B and Enterprise-C do in the paper), and replies are
// parsed and checksum-verified on the way back. Rate limiting and an opt-out
// blocklist mirror the paper's ethical-measurement setup (Section 9).
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message types used by echo probing (RFC 792).
const (
	TypeEchoReply   = 0
	TypeEchoRequest = 8
)

// Echo is a parsed ICMP echo request or reply.
type Echo struct {
	// Reply distinguishes reply (true) from request (false).
	Reply bool
	// ID identifies the probing process, echoed by the responder.
	ID uint16
	// Seq sequences probes within a process, echoed by the responder.
	Seq uint16
	// Payload is the echo data, echoed verbatim by the responder.
	Payload []byte
}

// Errors returned by Parse.
var (
	ErrShortPacket = errors.New("icmp: packet shorter than echo header")
	ErrBadChecksum = errors.New("icmp: checksum mismatch")
	ErrNotEcho     = errors.New("icmp: not an echo request or reply")
	ErrNonZeroCode = errors.New("icmp: nonzero code in echo message")
)

// AppendTo appends e's wire format, with a valid checksum, to dst and
// returns the extended slice. A message without payload is eight bytes, so
// a caller sending one can marshal into a buffer on its stack.
func (e Echo) AppendTo(dst []byte) []byte {
	start := len(dst)
	typ := byte(TypeEchoRequest)
	if e.Reply {
		typ = TypeEchoReply
	}
	// Code and checksum start zero.
	dst = append(dst, typ, 0, 0, 0, byte(e.ID>>8), byte(e.ID), byte(e.Seq>>8), byte(e.Seq))
	dst = append(dst, e.Payload...)
	binary.BigEndian.PutUint16(dst[start+2:], Checksum(dst[start:]))
	return dst
}

// Parse decodes and checksum-verifies an ICMP echo message. The payload is
// copied: the result does not alias buf.
func Parse(buf []byte) (Echo, error) {
	if len(buf) < 8 {
		return Echo{}, ErrShortPacket
	}
	if Checksum(buf) != 0 {
		// The internet checksum of a packet that includes its own
		// correct checksum is zero.
		return Echo{}, ErrBadChecksum
	}
	switch buf[0] {
	case TypeEchoRequest, TypeEchoReply:
	default:
		return Echo{}, fmt.Errorf("%w: type %d", ErrNotEcho, buf[0])
	}
	if buf[1] != 0 {
		return Echo{}, ErrNonZeroCode
	}
	e := Echo{
		Reply: buf[0] == TypeEchoReply,
		ID:    binary.BigEndian.Uint16(buf[4:6]),
		Seq:   binary.BigEndian.Uint16(buf[6:8]),
	}
	if len(buf) > 8 {
		e.Payload = append([]byte(nil), buf[8:]...)
	}
	return e, nil
}

// ReplyTo constructs the echo reply for a request, echoing ID, Seq and
// payload as RFC 792 requires.
func ReplyTo(req Echo) Echo {
	return Echo{Reply: true, ID: req.ID, Seq: req.Seq, Payload: req.Payload}
}

// Checksum computes the RFC 1071 internet checksum over buf. Computing it
// over a packet whose checksum field holds the correct value yields zero.
func Checksum(buf []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(buf); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(buf[i : i+2]))
	}
	if len(buf)%2 == 1 {
		sum += uint32(buf[len(buf)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
