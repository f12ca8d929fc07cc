// Package scanengine is the sharded, parallel reverse-DNS snapshot engine.
//
// The paper's pipeline repeatedly snapshots the full (simulated) IPv4
// reverse tree at OpenINTEL/Rapid7 cadence and diffs successive snapshots
// to infer joins and leaves (Section 2.1, Section 3). This package
// industrializes that hot path: it partitions the target address space
// into per-/16 shards, fans the shards out over a bounded pool of resolver
// workers, merges the results into a snapshot in the packed per-/24 form
// the history store keeps (Blocks) with per-shard progress, and feeds
// incremental diffs — one linear merge against the previous sweep's
// blocks — to downstream consumers.
//
// The public surface is the context-aware Scanner API:
//
//	sc := scanengine.New(src, scanengine.WithWorkers(8))
//	snap, err := sc.Sweep(ctx, scanengine.Request{Targets: prefixes})
//	for _, ch := range snap.Changes { ... } // deltas vs. the previous sweep
//
// plus a result callback for consumers that want every probe's outcome as
// it completes (a CSV printer, say):
//
//	scanengine.New(src, scanengine.WithResultFunc(func(r scanengine.Result) { ... }))
//
// Sources come in three shapes. A Source resolves one PTR probe
// synchronously (an in-process authoritative server). A WindowSource
// additionally resolves a worker's next run of addresses together (a socket
// client keeping a window of queries in flight). A ShardSource enumerates a
// whole shard at once — the fast path used by bulk snapshotters that
// already hold record state.
//
// The engine also keeps a negative-response cache with TTL-based
// invalidation: NXDOMAIN-heavy static ranges (the vast majority of the
// IPv4 space) are re-probed only after the TTL lapses, which is what makes
// high-cadence re-sweeps cheap.
package scanengine

import (
	"rdnsprivacy/internal/dnswire"
)

// RecordSet maps addresses to their PTR targets at one instant.
type RecordSet map[dnswire.IPv4]dnswire.Name

// ChangeKind classifies a record-set delta.
type ChangeKind int

// Change kinds.
const (
	// RecordAdded: a PTR appeared — a client (likely) joined.
	RecordAdded ChangeKind = iota
	// RecordRemoved: a PTR vanished — a client left and its lease ended.
	RecordRemoved
	// RecordChanged: the name at an address changed — the address was
	// reallocated to a different client.
	RecordChanged
)

// String returns a mnemonic.
func (k ChangeKind) String() string {
	switch k {
	case RecordAdded:
		return "added"
	case RecordRemoved:
		return "removed"
	case RecordChanged:
		return "changed"
	default:
		return "unknown"
	}
}

// Change is one observed delta between snapshots.
type Change struct {
	Kind ChangeKind
	IP   dnswire.IPv4
	// Old is the previous name (Removed/Changed).
	Old dnswire.Name
	// New is the current name (Added/Changed).
	New dnswire.Name
}
