package dnsclient

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// resultFromResponse maps a lookup response onto the engine's probe
// taxonomy: success is a found record, NXDOMAIN and NODATA are
// authoritative absences, everything else is an error. The full Response
// rides along in Meta: the socket and fabric clients report RTT, attempts
// and the NXDOMAIN/NODATA distinction through it for every probe.
func resultFromResponse(ip dnswire.IPv4, resp Response) scanengine.Result {
	res := scanengine.Result{IP: ip, Meta: resp}
	switch resp.Outcome {
	case OutcomeSuccess:
		res.Found = true
		res.Name = resp.PTR
	case OutcomeNXDomain, OutcomeNoData:
		// Absent: Found=false, Err=nil.
	default:
		res.Err = resp.Err()
	}
	return res
}

// UDPSource adapts the synchronous UDP client to scanengine.Source, for
// sharded parallel sweeps against real name servers. The client lends each
// lookup a socket of its own, so one source serves all engine workers. It
// is also a scanengine.WindowSource: a worker's run of addresses goes out
// on one socket together.
type UDPSource struct {
	Client *UDPClient
}

// LookupPTR implements scanengine.Source.
func (s UDPSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) scanengine.Result {
	resp, err := s.Client.LookupPTRContext(ctx, ip)
	return socketResult(ip, resp, err)
}

// socketResult maps what a socket lookup for ip returned onto a Result: a
// lookup that ended in an error carries only that.
func socketResult(ip dnswire.IPv4, resp Response, err error) scanengine.Result {
	if err != nil {
		return scanengine.Result{IP: ip, Err: err}
	}
	return resultFromResponse(ip, resp)
}

// LookupPTRs implements scanengine.WindowSource: out[i] is what LookupPTR
// would return for ips[i], with all of the probes — at most
// scanengine.Window, by that contract — in flight at once.
func (s UDPSource) LookupPTRs(ctx context.Context, ips []dnswire.IPv4, out []scanengine.Result) {
	var window [scanengine.Window]probe
	probes := window[:len(ips)]
	for i, ip := range ips {
		probes[i] = probe{q: ptrQuestion(ip)}
	}
	s.Client.exchange(ctx, probes)
	for i, ip := range ips {
		out[i] = socketResult(ip, probes[i].resp, probes[i].err)
	}
}

// QueryHandler is the message-level server interface ServerSource drives —
// dnsserver.Server implements it. The query is lent for the call: a handler
// may read it until it returns and must not keep it (ServerSource reuses the
// buffer for its next probe). The reply belongs to the caller.
type QueryHandler interface {
	HandleQuery(query []byte) []byte
}

// CorrQueryHandler is the correlated variant: the handler receives the
// probe's correlation ID alongside the wire query, so a traced server can
// join its span to the client's. dnsserver.Server implements it.
type CorrQueryHandler interface {
	HandleQueryCorr(query []byte, corr uint64) []byte
}

// scratch is one in-process lookup's working memory: the query it hands the
// server. A lookup borrows one for its duration; nothing it returns aliases
// it. (The socket client's buffers live with its pooled sockets.)
type scratch struct {
	query [dnswire.MaxNameLen + queryOverhead]byte
}

// queryOverhead is what a single-question query adds to its name's
// presentation length: the header (12), the root octet, type and class (4),
// and one octet for a Name written without its trailing dot.
const queryOverhead = 18

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ServerSource probes an in-process authoritative server directly at the
// DNS message level: each lookup writes a query, hands the wire form to the
// server, and classifies the wire response in place. It performs the same
// per-query encode/decode work as a network client without socket or fabric
// scheduling, which makes it the natural source for parallel full-sweep
// snapshots of a simulated deployment. Safe for concurrent use.
//
// A probe allocates only what outlives it. Result.Meta carries the full
// Response for found answers and for answers that are errors (SERVFAIL,
// REFUSED, a mismatched reply); a plain absence — NXDOMAIN or NODATA on the
// source's single attempt — says everything in Found=false, Err=nil, and
// carries no Meta.
type ServerSource struct {
	Server QueryHandler

	// Tracer, when non-nil, correlates every probe: the source derives
	// telemetry.CorrID(Seed, name, 1), emits an "attempt" span, and — when
	// Server also implements CorrQueryHandler — hands the ID to the server
	// so its span joins the chain. Nil keeps the uncorrelated hot path.
	Tracer *telemetry.Tracer
	// Seed keys the correlation IDs (pair with the scan seed).
	Seed int64

	nextID atomic.Uint32
}

// LookupPTR implements scanengine.Source.
func (s *ServerSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) scanengine.Result {
	// The reverse name stays on this frame; a Name is built from it only for
	// the Response or Error of a probe that has one.
	var nb [32]byte
	name := dnswire.AppendReverseName(nb[:0], ip)
	question := func() dnswire.Question {
		return dnswire.Question{Name: dnswire.Name(name), Type: dnswire.TypePTR, Class: dnswire.ClassIN}
	}
	if err := ctx.Err(); err != nil {
		return scanengine.Result{IP: ip, Err: &Error{Kind: KindCanceled, Question: question(), wrapped: err}}
	}
	id := uint16(s.nextID.Add(1))
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var b dnswire.Builder
	wire, err := b.Finish(b.Question(b.Begin(sc.query[:0]), name, dnswire.TypePTR, dnswire.ClassIN), dnswire.Header{ID: id})
	if err != nil {
		return scanengine.Result{IP: ip, Err: &Error{Kind: KindMalformed, Question: question(), wrapped: err}}
	}
	var corr uint64
	var sp *telemetry.Span
	if s.Tracer != nil {
		corr = telemetry.CorrID(s.Seed, string(name), 1)
		sp = s.Tracer.StartSpanCorr("attempt", string(name), corr)
		sp.Event("tx", 1)
	}
	started := time.Now()
	var reply []byte
	if ch, ok := s.Server.(CorrQueryHandler); ok && corr != 0 {
		reply = ch.HandleQueryCorr(wire, corr)
	} else {
		reply = s.Server.HandleQuery(wire)
	}
	if reply == nil {
		endAttempt(sp, OutcomeTimeout)
		return scanengine.Result{IP: ip, Corr: corr, Err: &Error{Kind: KindTimeout, Question: question(), Attempts: 1}}
	}
	msg, err := dnswire.Parse(reply)
	if err != nil || !msg.Header.Response || msg.Header.ID != id {
		endAttempt(sp, OutcomeMalformed)
		return scanengine.Result{IP: ip, Corr: corr, Err: &Error{Kind: KindMalformed, Question: question(), Attempts: 1, wrapped: err}}
	}
	outcome, ptr := classify(&msg, name, dnswire.TypePTR)
	endAttempt(sp, outcome)
	if outcome == OutcomeNXDomain || outcome == OutcomeNoData {
		return scanengine.Result{IP: ip, Corr: corr}
	}
	now := time.Now()
	res := resultFromResponse(ip, Response{
		Question: question(),
		Outcome:  outcome,
		PTR:      ptr,
		RCode:    msg.Header.RCode,
		Attempts: 1,
		RTT:      now.Sub(started),
		When:     now,
	})
	res.Corr = corr
	return res
}
