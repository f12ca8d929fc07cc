package dnsclient

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
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
// falls back to it when a UDP answer arrives truncated. A cancelled ctx
// ends the dial or the read it interrupts, and the returned error wraps
// ctx.Err(). A reply that still carries TC has nowhere further to go: it is
// OutcomeMalformed, never read as the absence its empty answer section
// would spell.
func (c *UDPClient) LookupTCP(ctx context.Context, q dnswire.Question) (Response, error) {
	if err := ctx.Err(); err != nil {
		return canceled(q, 0, time.Time{}, err)
	}
	timeout := c.timeout()
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.Server)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return canceled(q, 0, time.Time{}, cerr)
		}
		return Response{}, fmt.Errorf("dnsclient: dial tcp: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	// As on the datagram path, a cancellation unblocks the socket by moving
	// its deadline.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(0, 0)) })
		defer stop()
	}

	id, err := streamID()
	if err != nil {
		return Response{}, err
	}
	wire, err := dnswire.AppendQuery(nil, id, q.Name, q.Type)
	if err != nil {
		return Response{}, err
	}
	started := time.Now()
	// failed reports a stream error, or the cancellation that caused it.
	failed := func(op string, err error) (Response, error) {
		if cerr := ctx.Err(); cerr != nil {
			return canceled(q, 1, started, cerr)
		}
		return Response{}, fmt.Errorf("dnsclient: %s: %w", op, err)
	}
	if err := dnswire.WriteFramed(conn, wire); err != nil {
		return failed("write", err)
	}
	respWire, err := dnswire.ReadFramed(conn)
	if err != nil {
		return failed("read", err)
	}
	msg, err := dnswire.Parse(respWire)
	if err != nil || !msg.Header.Response || msg.Header.ID != id || msg.Header.Truncated {
		return Response{
			Question: q, Outcome: OutcomeMalformed,
			Attempts: 1, RTT: time.Since(started), When: time.Now(),
		}, nil
	}
	now := time.Now()
	return responseFrom(q, &msg, 1, now.Sub(started), now), nil
}

// streamID draws the query ID of a one-query stream from the OS generator.
func streamID() (uint16, error) {
	var b [2]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("dnsclient: query ID: %w", err)
	}
	return binary.BigEndian.Uint16(b[:]), nil
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

	id, err := streamID()
	if err != nil {
		return nil, err
	}
	wire, err := dnswire.AppendQuery(nil, id, zone, dnswire.TypeAXFR)
	if err != nil {
		return nil, err
	}
	if err := dnswire.WriteFramed(conn, wire); err != nil {
		return nil, fmt.Errorf("dnsclient: write: %w", err)
	}

	var records []dnswire.Record
	soaSeen := 0
	for soaSeen < 2 {
		respWire, err := dnswire.ReadFramed(conn)
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
