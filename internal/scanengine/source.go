package scanengine

import (
	"context"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// Result is the outcome of probing one address.
type Result struct {
	// IP is the probed address.
	IP dnswire.IPv4
	// Name is the PTR target when Found.
	Name dnswire.Name
	// Found reports a NOERROR answer carrying a PTR record. A Result
	// with Found=false and Err=nil is an authoritative absence
	// (NXDOMAIN / NODATA) — the record-absent signal, not an error.
	Found bool
	// Err is a resolution error (timeout, server failure, refusal),
	// nil for found and absent results.
	Err error
	// Cached reports the result was served from the negative cache
	// without touching the source.
	Cached bool
	// Meta carries a source-specific payload (e.g. the full
	// dnsclient.Response) for consumers that need more than the
	// engine's taxonomy.
	Meta any
	// Corr is the probe's cross-layer correlation ID (telemetry.CorrID),
	// zero when the source does not correlate. It names the
	// client/fabric/server spans of this probe in the trace.
	Corr uint64
}

// Absent reports an authoritative absence: no record and no error.
func (r Result) Absent() bool { return !r.Found && r.Err == nil }

// Source resolves one PTR probe synchronously. Implementations must be
// safe for concurrent use: the engine calls LookupPTR from its worker
// pool. Implementations should honor ctx cancellation promptly.
type Source interface {
	LookupPTR(ctx context.Context, ip dnswire.IPv4) Result
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context, ip dnswire.IPv4) Result

// LookupPTR implements Source.
func (f SourceFunc) LookupPTR(ctx context.Context, ip dnswire.IPv4) Result { return f(ctx, ip) }

// ShardSource is an optional fast path for sources that can enumerate all
// present records of a shard at once (bulk snapshotters that already hold
// record state, zone transfers). When a Source also implements
// ShardSource the engine calls ScanShard once per shard instead of
// probing every address: emit is invoked for each present record, absent
// addresses are never enumerated, and the shard is handed over whole
// (targets are not split below their natural size in this mode).
type ShardSource interface {
	ScanShard(ctx context.Context, shard dnswire.Prefix, at time.Time, emit func(Result)) error
}

// WindowSource is an optional fast path for sources that can keep several
// probes in flight at once (a socket client with an in-flight table). When
// a Source also implements it the engine hands each worker's next run of
// addresses over together: LookupPTRs fills out[i] with exactly what
// LookupPTR(ctx, ips[i]) would return, len(out) == len(ips) <= Window, and
// returns when every one is resolved, or cancelled. The engine still probes
// address by address when resilience or a rate limit is on: the breaker's
// state after one probe decides whether the next is sent, and a rate is a
// spacing, not a burst size.
type WindowSource interface {
	LookupPTRs(ctx context.Context, ips []dnswire.IPv4, out []Result)
}

// Window is how many addresses a WindowSource is handed at once. It is a
// constant, not an option: eight workers with sixteen small datagrams each
// in flight stay well inside a default 208 KB socket receive buffer on the
// server's side, and wider windows measured no faster.
const Window = 16
