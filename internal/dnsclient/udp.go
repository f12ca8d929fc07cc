package dnsclient

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// UDPClient is a small synchronous DNS client over real UDP sockets, used by
// the command-line tools to query servers started with cmd/simnet (or any
// other DNS server).
type UDPClient struct {
	// Server is the "host:port" of the name server.
	Server string
	// Timeout is the per-attempt read deadline. Default 2s.
	Timeout time.Duration
	// Retries is how many additional attempts follow a timeout.
	Retries int
}

// LookupPTR performs a synchronous PTR lookup for ip.
func (c *UDPClient) LookupPTR(ip dnswire.IPv4) (Response, error) {
	return c.Lookup(dnswire.Question{
		Name:  dnswire.ReverseName(ip),
		Type:  dnswire.TypePTR,
		Class: dnswire.ClassIN,
	})
}

// LookupPTRContext is LookupPTR honoring ctx between attempts.
func (c *UDPClient) LookupPTRContext(ctx context.Context, ip dnswire.IPv4) (Response, error) {
	return c.LookupContext(ctx, dnswire.Question{
		Name:  dnswire.ReverseName(ip),
		Type:  dnswire.TypePTR,
		Class: dnswire.ClassIN,
	})
}

// Lookup performs a synchronous lookup of q against c.Server.
func (c *UDPClient) Lookup(q dnswire.Question) (Response, error) {
	return c.LookupContext(context.Background(), q)
}

// LookupContext performs a synchronous lookup of q against c.Server. A
// cancelled ctx ends the retry loop immediately — cancellation is never
// counted as one more retryable timeout — and the returned error wraps
// ctx.Err(). An answer the server truncated to fit a datagram (TC) is
// asked again over TCP, standard resolver behaviour; the response then
// counts the datagram attempts too and its RTT runs from the first of them.
func (c *UDPClient) LookupContext(ctx context.Context, q dnswire.Question) (Response, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if err := ctx.Err(); err != nil {
		return Response{Question: q, Outcome: OutcomeCanceled, When: time.Now(), Cause: err},
			&Error{Kind: KindCanceled, Question: q, wrapped: err}
	}
	conn, err := net.Dial("udp", c.Server)
	if err != nil {
		return Response{}, fmt.Errorf("dnsclient: dial: %w", err)
	}
	defer conn.Close()
	// A cancellation mid-read unblocks the socket by moving its deadline.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			conn.SetReadDeadline(time.Unix(0, 0))
		})
		defer stop()
	}

	id := uint16(rand.Intn(1 << 16))
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	wire, err := dnswire.AppendQuery(sc.query[:0], id, q.Name, q.Type)
	if err != nil {
		return Response{}, fmt.Errorf("dnsclient: marshal: %w", err)
	}
	started := time.Now()
	attempts := 0
	buf := sc.reply[:]
	for attempts <= c.Retries {
		attempts++
		if _, err := conn.Write(wire); err != nil {
			return Response{}, fmt.Errorf("dnsclient: write: %w", err)
		}
		conn.SetReadDeadline(time.Now().Add(timeout))
		n, err := conn.Read(buf)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return Response{
						Question: q, Outcome: OutcomeCanceled, Attempts: attempts,
						RTT: time.Since(started), When: time.Now(), Cause: cerr,
					},
					&Error{Kind: KindCanceled, Question: q, Attempts: attempts, wrapped: cerr}
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return Response{}, fmt.Errorf("dnsclient: read: %w", err)
		}
		msg, err := dnswire.Parse(buf[:n])
		if err != nil || !msg.Header.Response || msg.Header.ID != id {
			return Response{
				Question: q, Outcome: OutcomeMalformed,
				Attempts: attempts, RTT: time.Since(started), When: time.Now(),
			}, nil
		}
		if msg.Header.Truncated {
			// What fit the datagram says nothing about the name: a TC reply
			// with its answer section cut reads as NODATA — an authoritative
			// absence for an address that has a record.
			full, err := c.LookupTCP(q)
			if err != nil {
				return Response{}, err
			}
			full.Attempts += attempts
			full.RTT = full.When.Sub(started)
			return full, nil
		}
		now := time.Now()
		return responseFrom(q, &msg, attempts, now.Sub(started), now), nil
	}
	return Response{
		Question: q, Outcome: OutcomeTimeout,
		Attempts: attempts, RTT: time.Since(started), When: time.Now(),
	}, nil
}
