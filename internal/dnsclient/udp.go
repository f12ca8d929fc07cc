package dnsclient

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/udpbatch"
)

// UDPClient is a small synchronous DNS client over real UDP sockets, used by
// the command-line tools to query servers started with cmd/simnet (or any
// other DNS server).
//
// It keeps a pool of long-lived connected sockets, dialled on demand: a
// lookup borrows one, does its own writes and reads on it — there is no
// reader goroutine — and hands it back, so a sweep dials about one socket
// per concurrent caller rather than one per probe. The zero pool is ready;
// construct the client as a literal and set the exported fields before the
// first lookup (pooled sockets stay connected to the Server they dialled).
//
// What makes a reply ours: the kernel delivers a connected socket only the
// datagrams that come from Server's address and port; the query ID, drawn
// from a generator keyed from the OS per socket, selects which question in
// flight it answers; and the echoed question must be that question. A
// datagram that fails the first two — unknown ID, the QR bit clear, an ID
// already answered (the late duplicate a reused socket sees after a
// retransmission) — is skipped and the read continues to the deadline; it
// never ends a lookup. A datagram that carries a live ID but does not parse,
// or answers another question, is that lookup's OutcomeMalformed.
type UDPClient struct {
	// Server is the "host:port" of the name server.
	Server string
	// Timeout is the per-attempt read deadline. Default 2s.
	Timeout time.Duration
	// Retries is how many additional attempts follow a timeout.
	Retries int

	mu    sync.Mutex
	idle  []*udpSock
	gen   uint64 // bumped by Close: sockets dialled before it are not pooled again
	dials atomic.Uint64
}

// maxIdleSockets bounds the pool; a socket returned to a full pool is
// closed. Sweeps run a worker or two per core, far below it.
const maxIdleSockets = 64

// udpSock is one pooled socket with the working memory of the lookup that
// has borrowed it. Nothing a lookup returns aliases the buffers.
type udpSock struct {
	conn  *net.UDPConn
	batch *udpbatch.Conn // sends a window's queries in one call
	ids   *rand.ChaCha8
	gen   uint64
	query [1024]byte                          // the window's queries, back to back
	sends [scanengine.Window]udpbatch.Message // this round's queries, pointing into query
	reply [4096]byte
}

// probe is one question in flight on a socket. exchange fills in resp, or
// err for a lookup that ended without a classifiable outcome (dial, write
// and read errors); a cancelled probe has both, as LookupContext returns
// them.
type probe struct {
	q    dnswire.Question
	resp Response
	err  error

	id        uint16
	wire      []byte // the query as sent; a retransmission resends it as is
	attempts  int
	done      bool
	truncated bool // answered TC: asked again over TCP once the window is read
}

// LookupPTRContext is LookupPTR honoring ctx between attempts.
func (c *UDPClient) LookupPTRContext(ctx context.Context, ip dnswire.IPv4) (Response, error) {
	return c.LookupContext(ctx, ptrQuestion(ip))
}

func ptrQuestion(ip dnswire.IPv4) dnswire.Question {
	return dnswire.Question{Name: dnswire.ReverseName(ip), Type: dnswire.TypePTR, Class: dnswire.ClassIN}
}

// LookupContext performs a synchronous lookup of q against c.Server. A
// cancelled ctx ends the retry loop immediately — cancellation is never
// counted as one more retryable timeout — and the returned error wraps
// ctx.Err(). An answer the server truncated to fit a datagram (TC) is
// asked again over TCP, standard resolver behaviour; the response then
// counts the datagram attempts too and its RTT runs from the first of them.
func (c *UDPClient) LookupContext(ctx context.Context, q dnswire.Question) (Response, error) {
	p := [1]probe{{q: q}}
	c.exchange(ctx, p[:])
	return p[0].resp, p[0].err
}

// Dials reports how many UDP sockets the client has dialled so far.
func (c *UDPClient) Dials() uint64 { return c.dials.Load() }

// Close closes the idle sockets. It is safe at any time, lookups in flight
// included: they finish on the sockets they hold, and those are closed
// rather than pooled when they come back. The client stays usable — the
// next lookup dials afresh — so Close releases resources, it does not
// retire the client.
func (c *UDPClient) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.gen++
	c.mu.Unlock()
	for _, s := range idle {
		s.conn.Close()
	}
	return nil
}

func (c *UDPClient) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

// borrow takes a socket out of the pool, dialling one when none is idle.
func (c *UDPClient) borrow() (*udpSock, error) {
	c.mu.Lock()
	gen := c.gen
	if n := len(c.idle); n > 0 {
		s := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("dnsclient: query-ID seed: %w", err)
	}
	conn, err := net.Dial("udp", c.Server)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: dial: %w", err)
	}
	c.dials.Add(1)
	udp := conn.(*net.UDPConn)
	batch, err := udpbatch.New(udp, scanengine.Window)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dnsclient: dial: %w", err)
	}
	return &udpSock{conn: udp, batch: batch, ids: rand.NewChaCha8(seed), gen: gen}, nil
}

// release ends a borrow. Only a clean socket — every read on it answered
// in time, so nothing of this lookup can still be on its way — goes back
// to the pool; any other is closed.
func (c *UDPClient) release(s *udpSock, clean bool) {
	if clean {
		c.mu.Lock()
		if s.gen == c.gen && len(c.idle) < maxIdleSockets {
			c.idle = append(c.idle, s)
			s = nil
		}
		c.mu.Unlock()
	}
	if s != nil {
		s.conn.Close()
	}
}

// exchange resolves probes together on one borrowed socket, then asks the
// truncated ones again over TCP. LookupContext is a window of one.
func (c *UDPClient) exchange(ctx context.Context, probes []probe) {
	if err := ctx.Err(); err != nil {
		for i := range probes {
			p := &probes[i]
			p.resp, p.err = canceled(p.q, 0, time.Time{}, err)
		}
		return
	}
	sock, err := c.borrow()
	if err != nil {
		for i := range probes {
			probes[i].err = err
		}
		return
	}
	// A cancellation mid-read unblocks the socket by moving its deadline.
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { sock.conn.SetReadDeadline(time.Unix(0, 0)) })
	}
	started, clean := sock.roundTrips(ctx, probes, c.timeout(), c.Retries)
	// stop reports false once the cancellation has fired: it may move the
	// deadline yet, so that socket is not lent again.
	c.release(sock, stop() && clean)

	for i := range probes {
		p := &probes[i]
		if !p.truncated {
			continue
		}
		// What fit the datagram says nothing about the name: a TC reply
		// with its answer section cut reads as NODATA — an authoritative
		// absence for an address that has a record.
		p.resp, p.err = c.LookupTCP(ctx, p.q)
		if p.err == nil {
			p.resp.Attempts += p.attempts
			p.resp.RTT = p.resp.When.Sub(started)
		}
	}
}

// roundTrips writes every probe's query, reads replies until each is
// answered or the deadline passes, and retransmits the unanswered ones, up
// to retries times. A round's queries go out in one batch; its replies are
// read one datagram at a time. It reports when the first query went out and
// whether the socket is clean (see release).
func (s *udpSock) roundTrips(ctx context.Context, probes []probe, timeout time.Duration, retries int) (started time.Time, clean bool) {
	pending, off := 0, 0
	for i := range probes {
		p := &probes[i]
		p.id = s.freshID(probes[:i])
		wire, err := dnswire.AppendQuery(s.query[off:off], p.id, p.q.Name, p.q.Type)
		if err != nil {
			p.err, p.done = fmt.Errorf("dnsclient: marshal: %w", err), true
			continue
		}
		p.wire = wire
		off = min(off+len(wire), len(s.query))
		pending++
	}
	// rest ends every probe still unanswered.
	rest := func(end func(*probe)) {
		for i := range probes {
			if p := &probes[i]; !p.done {
				end(p)
				p.done = true
			}
		}
	}
	fail := func(op string, err error) {
		rest(func(p *probe) { p.err = fmt.Errorf("dnsclient: %s: %w", op, err) })
	}

	started = time.Now()
	clean = true
	for attempt := 0; attempt <= retries && pending > 0; attempt++ {
		sends := s.sends[:0]
		for i := range probes {
			p := &probes[i]
			if p.done {
				continue
			}
			p.attempts++
			sends = append(sends, udpbatch.Message{Buf: p.wire})
		}
		if _, err := s.batch.WriteBatch(sends); err != nil {
			fail("write", err)
			return started, false
		}
		s.conn.SetReadDeadline(time.Now().Add(timeout))
		if ctx.Err() != nil {
			// Cancelled while writing: this round's deadline may have
			// overwritten the one the cancel hook set.
			s.conn.SetReadDeadline(time.Unix(0, 0))
		}
		for pending > 0 {
			n, err := s.conn.Read(s.reply[:])
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					rest(func(p *probe) { p.resp, p.err = canceled(p.q, p.attempts, started, cerr) })
					return started, false
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					clean = false // a reply to this round may yet arrive
					break
				}
				fail("read", err)
				return started, false
			}
			// The ID says whose reply this claims to be; everything else
			// about it is then judged against that probe's own question.
			p := s.inFlight(probes, n)
			if p == nil {
				continue // not ours, or a duplicate of an answer already taken
			}
			msg, err := dnswire.Parse(s.reply[:n])
			switch {
			case err != nil:
				p.resp = p.ended(OutcomeMalformed, started)
			case !msg.Header.Response:
				continue // a query (our own, echoed): not an answer to anything
			case msg.Header.Truncated:
				p.truncated = true
			default:
				now := time.Now()
				p.resp = responseFrom(p.q, &msg, p.attempts, now.Sub(started), now)
			}
			p.done = true
			pending--
		}
	}
	rest(func(p *probe) { p.resp = p.ended(OutcomeTimeout, started) })
	return started, clean
}

// ended is the Response of a probe that finished without a classifiable
// reply: timed out, or answered with something unparsable.
func (p *probe) ended(outcome Outcome, started time.Time) Response {
	now := time.Now()
	return Response{Question: p.q, Outcome: outcome, Attempts: p.attempts, RTT: now.Sub(started), When: now}
}

// freshID draws a query ID no earlier probe of the window holds: IDs key
// the in-flight table, so within a window they must be distinct.
func (s *udpSock) freshID(earlier []probe) uint16 {
draw:
	for {
		id := uint16(s.ids.Uint64())
		for i := range earlier {
			if earlier[i].id == id {
				continue draw
			}
		}
		return id
	}
}

// inFlight returns the unanswered probe whose ID leads the n-octet datagram
// in s.reply, or nil.
func (s *udpSock) inFlight(probes []probe, n int) *probe {
	if n < 2 {
		return nil
	}
	id := binary.BigEndian.Uint16(s.reply[:2])
	for i := range probes {
		if p := &probes[i]; p.id == id && !p.done {
			return p
		}
	}
	return nil
}

// canceled is what a lookup ended by its context returns: the Response and
// the typed error, both carrying the cause. started is zero when nothing
// was sent.
func canceled(q dnswire.Question, attempts int, started time.Time, cause error) (Response, error) {
	now := time.Now()
	resp := Response{Question: q, Outcome: OutcomeCanceled, Attempts: attempts, When: now, Cause: cause}
	if !started.IsZero() {
		resp.RTT = now.Sub(started)
	}
	return resp, &Error{Kind: KindCanceled, Question: q, Attempts: attempts, wrapped: cause}
}
