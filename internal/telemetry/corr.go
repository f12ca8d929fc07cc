package telemetry

import "hash/fnv"

// Correlation IDs thread one probe's identity across layers: the client
// derives the ID from (seed, query name, attempt), stamps it on the
// datagram it transmits, the fabric copies it onto every hop event, and
// the authoritative server receives it alongside the wire query. Each
// layer opens its own span carrying the ID (see Span.Corr), so a trace
// dump can be stitched back into a causal chain
//
//	client attempt → fabric hops → server answer
//
// for any probe — without any layer knowing about the others.
//
// The derivation is the same pure-function keying faultsim uses for its
// fault decisions (seed + name + attempt through splitmix64), so a traced
// replay of a seeded scenario produces identical correlation IDs, and a
// fault decision and the spans it produced can be cross-referenced by
// construction rather than by timestamp proximity.

// CorrID derives the deterministic correlation ID of one transmission
// attempt: splitmix64 over (seed, FNV-1a(name), attempt). Attempts are
// 1-based; the same (seed, name, attempt) always yields the same ID, and
// the zero return is reserved (never produced) so 0 can mean "no
// correlation" on the wire.
func CorrID(seed int64, name string, attempt int) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	id := Mix64(uint64(seed), f.Sum64(), uint64(attempt))
	if id == 0 {
		// Mix64 output is effectively uniform; reserve 0 as the "no
		// correlation" sentinel without biasing anything measurable.
		return 1
	}
	return id
}

// CorrHex renders id as it travels between processes — the 16 lowercase hex
// digits of the X-Rdns-Corr header, the query log and the span dumps — from
// a stack buffer: it runs once per traced or logged request.
func CorrHex(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
