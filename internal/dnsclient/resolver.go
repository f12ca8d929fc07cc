// Package dnsclient implements a zdns/massdns-style DNS scanning client.
//
// The paper's supplemental measurement queries the authoritative name server
// for each address directly, "to make sure we get a fresh answer (i.e., not
// from a cache)" (Section 6.1), and rate-limits those queries. This package
// reproduces that client: single lookups with retry and timeout handling,
// classification of outcomes (NOERROR, NXDOMAIN, server failure, timeout) —
// the error classes of Figure 6. Sweeps are internal/scanengine's job,
// rate limiting and retry policy included; this package supplies its
// per-address sources (ServerSource, UDPSource).
//
// The asynchronous Resolver runs against the simulation fabric; a small
// synchronous client over real UDP sockets (see UDPClient) serves the
// command-line tools.
package dnsclient

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// Outcome classifies a completed lookup.
type Outcome int

// Outcome values. The paper's supplemental data distinguishes correct PTR
// responses from NXDOMAIN, name-server failure, and timeout (Section 6.1).
const (
	// OutcomeSuccess is a NOERROR answer containing the requested data.
	OutcomeSuccess Outcome = iota
	// OutcomeNXDomain is an authoritative denial: the name does not
	// exist. For reverse names this is the "record removed" signal.
	OutcomeNXDomain
	// OutcomeNoData is NOERROR without answers (name exists, no PTR).
	OutcomeNoData
	// OutcomeServFail is a server-side failure response.
	OutcomeServFail
	// OutcomeRefused means the server does not serve the zone.
	OutcomeRefused
	// OutcomeTimeout means every attempt went unanswered.
	OutcomeTimeout
	// OutcomeMalformed means the response could not be parsed or did not
	// match the question.
	OutcomeMalformed
	// OutcomeCanceled means the lookup's context was cancelled before a
	// usable response arrived.
	OutcomeCanceled
)

// String returns a mnemonic matching the paper's error taxonomy.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "NOERROR"
	case OutcomeNXDomain:
		return "NXDOMAIN"
	case OutcomeNoData:
		return "NODATA"
	case OutcomeServFail:
		return "SERVFAIL"
	case OutcomeRefused:
		return "REFUSED"
	case OutcomeTimeout:
		return "TIMEOUT"
	case OutcomeMalformed:
		return "MALFORMED"
	case OutcomeCanceled:
		return "CANCELED"
	default:
		return fmt.Sprintf("OUTCOME%d", int(o))
	}
}

// Response is the result of one lookup.
type Response struct {
	// Question is what was asked.
	Question dnswire.Question
	// Outcome classifies the result.
	Outcome Outcome
	// PTR is the PTR target for successful PTR lookups.
	PTR dnswire.Name
	// RCode is the response code, when a response arrived.
	RCode dnswire.RCode
	// RTT is the time from first transmission to completion.
	RTT time.Duration
	// Attempts is how many transmissions were made.
	Attempts int
	// When is the time the lookup completed.
	When time.Time
	// Cause is the underlying cause for OutcomeCanceled responses: the
	// context's error (context.Canceled or context.DeadlineExceeded).
	Cause error
}

// config is what the Options set; see each With* for the meaning and
// default of its field.
type config struct {
	Bind      fabric.Addr
	Server    fabric.Addr
	Timeout   time.Duration
	Retries   int
	Seed      int64
	Telemetry telemetry.Sink
	Tracer    *telemetry.Tracer
}

// Client-span event kinds and codes: each "attempt" span carries a "tx"
// event whose code is the 1-based attempt number, then one terminal
// "client" event whose code is the attempt's Outcome (OutcomeTimeout for
// attempts that timed out into a retry, and the lookup's final Outcome
// otherwise).

// Resolver sends queries over a fabric and matches responses, retrying
// after timeouts. Create one with NewResolver.
type Resolver struct {
	fab   *fabric.Fabric
	clock simclock.Clock
	cfg   config
	ep    *fabric.Endpoint
	met   *clientMetrics // nil when telemetry is off

	mu       sync.Mutex
	nextID   uint16
	inflight map[uint16]*pendingQuery
}

type pendingQuery struct {
	ctx      context.Context
	question dnswire.Question
	wire     []byte
	started  time.Time
	attempts int
	timer    simclock.Timer
	span     *telemetry.Span // current attempt's span; nil when untraced
	corr     uint64          // current attempt's correlation ID
	ctxStop  func() bool     // releases the context cancellation watch
	done     func(Response)
}

// takeSpanLocked detaches the current attempt's span for ending outside
// the lock. Callers hold r.mu.
func (p *pendingQuery) takeSpanLocked() *telemetry.Span {
	sp := p.span
	p.span = nil
	return sp
}

// endAttempt closes one attempt span with its terminal outcome. Safe on a
// nil span; must be called without r.mu held.
func endAttempt(sp *telemetry.Span, o Outcome) {
	if sp == nil {
		return
	}
	sp.Event("client", uint64(o))
	sp.End()
}

// Close releases the resolver's fabric endpoint.
func (r *Resolver) Close() error { return r.ep.Close() }

// LookupPTR resolves the PTR record for ip, calling done exactly once.
// Cancelling ctx completes the lookup promptly with OutcomeCanceled.
func (r *Resolver) LookupPTR(ctx context.Context, ip dnswire.IPv4, done func(Response)) {
	r.Lookup(ctx, dnswire.Question{
		Name:  dnswire.ReverseName(ip),
		Type:  dnswire.TypePTR,
		Class: dnswire.ClassIN,
	}, done)
}

// Lookup resolves an arbitrary question, calling done exactly once.
// Cancelling ctx completes the lookup promptly with OutcomeCanceled.
func (r *Resolver) Lookup(ctx context.Context, q dnswire.Question, done func(Response)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		resp := Response{Question: q, Outcome: OutcomeCanceled, When: r.clock.Now(), Cause: err}
		r.met.countOutcome(resp)
		done(resp)
		return
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	// The wire form outlives this call (retransmissions resend it), so it is
	// an allocation of its own, sized to the query.
	wire, err := dnswire.AppendQuery(make([]byte, 0, len(q.Name)+queryOverhead), id, q.Name, q.Type)
	if err != nil {
		r.mu.Unlock()
		resp := Response{Question: q, Outcome: OutcomeMalformed, When: r.clock.Now()}
		r.met.countOutcome(resp)
		done(resp)
		return
	}
	pending := &pendingQuery{
		ctx:      ctx,
		question: q,
		wire:     wire,
		started:  r.clock.Now(),
		done:     done,
	}
	// The 16-bit ID space can wrap under extreme concurrency; fail the
	// displaced query as timed out rather than leaking its callback.
	displaced := r.inflight[id]
	r.inflight[id] = pending
	if m := r.met; m != nil {
		m.queries.Inc()
	}
	var displacedTimer simclock.Timer
	var displacedAttempts int
	var displacedSpan *telemetry.Span
	if displaced != nil {
		displacedTimer = displaced.timer
		displaced.timer = nil
		displacedAttempts = displaced.attempts
		displacedSpan = displaced.takeSpanLocked()
	}
	r.mu.Unlock()
	if displaced != nil {
		if displacedTimer != nil {
			displacedTimer.Stop()
		}
		endAttempt(displacedSpan, OutcomeTimeout)
		r.finish(displaced, Response{
			Question: displaced.question, Outcome: OutcomeTimeout,
			Attempts: displacedAttempts, When: r.clock.Now(),
		})
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { r.cancel(id, pending) })
		// Publish the stop func under mu: the watch may already have fired
		// and finished the query, in which case it is released here instead.
		r.mu.Lock()
		if cur, ok := r.inflight[id]; ok && cur == pending {
			pending.ctxStop = stop
			r.mu.Unlock()
		} else {
			r.mu.Unlock()
			stop()
		}
	}
	r.transmit(id, pending)
}

// cancel completes a pending query with OutcomeCanceled when its context
// is cancelled before a usable response arrives.
func (r *Resolver) cancel(id uint16, p *pendingQuery) {
	r.mu.Lock()
	cur, ok := r.inflight[id]
	if !ok || cur != p {
		r.mu.Unlock()
		return
	}
	delete(r.inflight, id)
	timer := p.timer
	p.timer = nil
	attempts := p.attempts
	span := p.takeSpanLocked()
	r.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	endAttempt(span, OutcomeCanceled)
	r.finish(p, Response{
		Question: p.question,
		Outcome:  OutcomeCanceled,
		Attempts: attempts,
		RTT:      r.clock.Now().Sub(p.started),
		When:     r.clock.Now(),
		Cause:    p.ctx.Err(),
	})
}

// cancelLocked completes p as cancelled from inside the retry path. The
// caller holds r.mu with p still in the inflight table.
func (r *Resolver) cancelLocked(id uint16, p *pendingQuery) {
	delete(r.inflight, id)
	timer := p.timer
	p.timer = nil
	attempts := p.attempts
	span := p.takeSpanLocked()
	r.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	endAttempt(span, OutcomeCanceled)
	r.finish(p, Response{
		Question: p.question,
		Outcome:  OutcomeCanceled,
		Attempts: attempts,
		RTT:      r.clock.Now().Sub(p.started),
		When:     r.clock.Now(),
		Cause:    p.ctx.Err(),
	})
}

func (r *Resolver) transmit(id uint16, p *pendingQuery) {
	r.mu.Lock()
	if cur, ok := r.inflight[id]; !ok || cur != p {
		r.mu.Unlock()
		return
	}
	// Cancellation must never be treated as one more timeout to retry
	// through: check before spending an attempt.
	if p.ctx.Err() != nil {
		r.cancelLocked(id, p) // unlocks
		return
	}
	p.attempts++
	epoch := p.attempts
	if m := r.met; m != nil && epoch > 1 {
		m.retransmits.Inc()
	}
	corr := uint64(0)
	if r.cfg.Tracer != nil {
		// Each transmission is its own causal chain: the correlation ID
		// folds in the attempt number, matching how faultsim draws a fresh
		// fault decision per retransmission.
		corr = telemetry.CorrID(r.cfg.Seed, string(p.question.Name), epoch)
		p.corr = corr
		p.span = r.cfg.Tracer.StartSpanCorr("attempt", string(p.question.Name), corr)
		p.span.Event("tx", uint64(epoch))
	}
	r.mu.Unlock()
	// Send outside the lock: a simulated fabric may deliver the response
	// synchronously, re-entering handleResponse.
	r.ep.SendCorr(r.cfg.Server, p.wire, corr)
	timer := r.clock.AfterFunc(r.cfg.Timeout, func() {
		r.mu.Lock()
		cur, ok := r.inflight[id]
		// The epoch check retires stale timers: a timer that fired after
		// its attempt was superseded must not spend a second attempt.
		if !ok || cur != p || p.attempts != epoch {
			r.mu.Unlock()
			return
		}
		// A cancelled context ends the lookup here and now, with the
		// wrapped ctx error — it must not be counted as a retryable
		// timeout even when retry budget remains.
		if p.ctx.Err() != nil {
			r.cancelLocked(id, p) // unlocks
			return
		}
		if p.attempts <= r.cfg.Retries {
			span := p.takeSpanLocked()
			r.mu.Unlock()
			endAttempt(span, OutcomeTimeout)
			r.transmit(id, p)
			return
		}
		delete(r.inflight, id)
		span := p.takeSpanLocked()
		r.mu.Unlock()
		endAttempt(span, OutcomeTimeout)
		r.finish(p, Response{
			Question: p.question,
			Outcome:  OutcomeTimeout,
			Attempts: p.attempts,
			RTT:      r.clock.Now().Sub(p.started),
			When:     r.clock.Now(),
		})
	})
	r.mu.Lock()
	if cur, ok := r.inflight[id]; ok && cur == p && p.attempts == epoch {
		p.timer = timer
		r.mu.Unlock()
		return
	}
	// Completed (or moved on) between Send and timer registration.
	r.mu.Unlock()
	timer.Stop()
}

func (r *Resolver) handleResponse(dg fabric.Datagram) {
	msg, err := dnswire.Parse(dg.Payload)
	if err != nil || !msg.Header.Response {
		return
	}
	r.mu.Lock()
	p, ok := r.inflight[msg.Header.ID]
	if !ok {
		r.mu.Unlock()
		return
	}
	now := r.clock.Now()
	resp := responseFrom(p.question, &msg, p.attempts, now.Sub(p.started), now)
	delete(r.inflight, msg.Header.ID)
	timer := p.timer
	p.timer = nil
	span := p.takeSpanLocked()
	r.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	endAttempt(span, resp.Outcome)
	r.finish(p, resp)
}

// classify maps a parsed reply onto the paper's outcome taxonomy, reading
// it in place: the echoed question and each answer's owner are compared
// with the asked name in the reply's bytes, and nothing is decoded into a
// Name except, for a found PTR answer, the target that outlives the reply.
// name is the question asked, in canonical presentation form. It is shared
// by the fabric resolver, the synchronous UDP and TCP clients, and the
// in-process ServerSource.
func classify(reply *dnswire.View, name []byte, qtype dnswire.Type) (Outcome, dnswire.Name) {
	// The response must echo our question.
	if reply.Count(dnswire.SectionQuestion) != 1 || !reply.QuestionIs(name, qtype) {
		return OutcomeMalformed, ""
	}
	switch reply.Header.RCode {
	case dnswire.RCodeNoError:
		for answers := reply.Records(dnswire.SectionAnswer); ; {
			rr, ok := answers.Next()
			if !ok {
				return OutcomeNoData, ""
			}
			if rr.Type != qtype || !rr.OwnerIs(name) {
				continue
			}
			if rr.Type == dnswire.TypePTR {
				var nb [dnswire.MaxNameLen + 1]byte
				if target, ok := rr.Target(nb[:0]); ok {
					return OutcomeSuccess, dnswire.Name(target)
				}
			}
			return OutcomeSuccess, ""
		}
	case dnswire.RCodeNXDomain:
		return OutcomeNXDomain, ""
	case dnswire.RCodeServFail:
		return OutcomeServFail, ""
	case dnswire.RCodeRefused:
		return OutcomeRefused, ""
	default:
		return OutcomeMalformed, ""
	}
}

// responseFrom is classify for callers that report every lookup as a
// Response.
func responseFrom(q dnswire.Question, reply *dnswire.View, attempts int, rtt time.Duration, when time.Time) Response {
	var nb [dnswire.MaxNameLen + 1]byte
	outcome, ptr := classify(reply, append(nb[:0], q.Name...), q.Type)
	return Response{
		Question: q,
		Outcome:  outcome,
		PTR:      ptr,
		RCode:    reply.Header.RCode,
		Attempts: attempts,
		RTT:      rtt,
		When:     when,
	}
}

func (r *Resolver) finish(p *pendingQuery, resp Response) {
	// Every completion funnels through here, so this is the one place the
	// per-outcome counters and the latency histogram tick.
	r.met.countOutcome(resp)
	if p.ctxStop != nil {
		p.ctxStop()
	}
	done := p.done
	p.done = nil
	if done != nil {
		done(resp)
	}
}
