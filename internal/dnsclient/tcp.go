package dnsclient

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// This file gives the synchronous client its stream capabilities: TCP
// retry after a truncated UDP answer, and AXFR zone transfers. An open
// transfer hands an observer the entire reverse zone — device names and
// all — in a single query; TransferZone is the attacker's (and auditor's)
// tool for checking that.

// LookupTCP performs one query over TCP (length-framed). LookupContext
// falls back to it when a UDP answer arrives truncated.
func (c *UDPClient) LookupTCP(q dnswire.Question) (Response, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Server, timeout)
	if err != nil {
		return Response{}, fmt.Errorf("dnsclient: dial tcp: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	id := uint16(rand.Intn(1 << 16))
	wire, err := dnswire.AppendQuery(nil, id, q.Name, q.Type)
	if err != nil {
		return Response{}, err
	}
	started := time.Now()
	if err := writeFramed(conn, wire); err != nil {
		return Response{}, fmt.Errorf("dnsclient: write: %w", err)
	}
	respWire, err := readFramed(conn)
	if err != nil {
		return Response{}, fmt.Errorf("dnsclient: read: %w", err)
	}
	msg, err := dnswire.Parse(respWire)
	if err != nil || !msg.Header.Response || msg.Header.ID != id {
		return Response{
			Question: q, Outcome: OutcomeMalformed,
			Attempts: 1, RTT: time.Since(started), When: time.Now(),
		}, nil
	}
	now := time.Now()
	return responseFrom(q, &msg, 1, now.Sub(started), now), nil
}

// TransferZone performs an AXFR of the zone and returns every record
// between the opening and closing SOA. Servers with transfers disabled
// answer REFUSED, reported as an error.
func (c *UDPClient) TransferZone(zone dnswire.Name) ([]dnswire.Record, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Server, timeout)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: dial tcp: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	id := uint16(rand.Intn(1 << 16))
	wire, err := dnswire.AppendQuery(nil, id, zone, dnswire.TypeAXFR)
	if err != nil {
		return nil, err
	}
	if err := writeFramed(conn, wire); err != nil {
		return nil, fmt.Errorf("dnsclient: write: %w", err)
	}

	var records []dnswire.Record
	soaSeen := 0
	for soaSeen < 2 {
		respWire, err := readFramed(conn)
		if err != nil {
			return nil, fmt.Errorf("dnsclient: read: %w", err)
		}
		msg, err := dnswire.Unmarshal(respWire)
		if err != nil {
			return nil, fmt.Errorf("dnsclient: parse: %w", err)
		}
		if msg.Header.ID != id || !msg.Header.Response {
			return nil, fmt.Errorf("dnsclient: transfer response mismatch")
		}
		if msg.Header.RCode != dnswire.RCodeNoError {
			return nil, fmt.Errorf("dnsclient: transfer refused: %v", msg.Header.RCode)
		}
		for _, rr := range msg.Answers {
			if rr.Type == dnswire.TypeSOA {
				soaSeen++
				continue
			}
			records = append(records, rr)
		}
		if len(msg.Answers) == 0 {
			return nil, fmt.Errorf("dnsclient: empty transfer envelope")
		}
	}
	return records, nil
}

// readFramed and writeFramed implement RFC 1035 §4.2.2 stream framing.
func readFramed(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	if n == 0 {
		return nil, fmt.Errorf("dnsclient: zero-length frame")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeFramed(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return fmt.Errorf("dnsclient: message exceeds frame limit")
	}
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(msg)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}
