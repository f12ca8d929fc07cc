package histstore

import (
	"sync"
	"sync/atomic"
)

// The churn table. A /24's churn at a snapshot — how many records the
// snapshot added, removed and changed against the one before — is a fact
// of the history: once the snapshot is written it never changes, not on
// an append, not across a compaction (which re-lays frames but answers
// bit-identically). So the first churn walk that steps over a (/24,
// snapshot) cell writes its counts here, and every later /24-or-wider
// churn over the cell reads them instead of walking again. The walk that
// fills a cell is the only derivation: the table never computes a count.
//
// Cells are keyed by the history's (block, snapshot), not by where a
// segment or the tail keeps the block's frames, so they stay valid for
// the handle's life. A cell is one atomic word: a reader under the
// store's read lock sees it whole or empty, never half written. Cells are
// allocated churnChunkLen snapshots of one /24 at a time, on first fill.

// churnChunkLen is how many consecutive snapshots of one /24 a chunk of
// the table holds.
const churnChunkLen = 32

// churnCounts is one cell: the changes that carried a /24 into a
// snapshot. A /24 holds at most 256 records, so each count fits 16 bits.
type churnCounts struct {
	added, removed, changed uint16
}

// churnFilled marks a filled cell; an empty cell is 0.
const churnFilled = 1 << 48

func (c churnCounts) pack() uint64 {
	return churnFilled | uint64(c.added) | uint64(c.removed)<<16 | uint64(c.changed)<<32
}

func unpackChurn(v uint64) churnCounts {
	return churnCounts{added: uint16(v), removed: uint16(v >> 16), changed: uint16(v >> 32)}
}

// add sums c into the day.
func (d *ChurnDay) add(c churnCounts) {
	d.Added += int(c.added)
	d.Removed += int(c.removed)
	d.Changed += int(c.changed)
}

type churnKey struct {
	addr  uint32 // the /24's address
	chunk int32  // snapshot / churnChunkLen
}

type churnChunk [churnChunkLen]atomic.Uint64

// churnTable is a handle's table of churn cells. Safe for concurrent use:
// the chunk map has its own lock, and each cell is written atomically.
type churnTable struct {
	mu     sync.RWMutex
	chunks map[churnKey]*churnChunk
}

// chunk returns the chunk at k, making it when fill asks and there is
// none (nil otherwise).
func (t *churnTable) chunk(k churnKey, fill bool) *churnChunk {
	t.mu.RLock()
	c := t.chunks[k]
	t.mu.RUnlock()
	if c != nil || !fill {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.chunks[k]; c == nil {
		if t.chunks == nil {
			t.chunks = make(map[churnKey]*churnChunk)
		}
		c = new(churnChunk)
		t.chunks[k] = c
	}
	return c
}

// churnRow reads and fills the cells of one /24, keeping the chunk it
// touched last, so a window costs a map probe per chunk, not per cell.
type churnRow struct {
	t    *churnTable
	addr uint32
	k    int32
	c    *churnChunk
}

func (r *churnRow) cell(snap int, fill bool) *atomic.Uint64 {
	if k := int32(snap / churnChunkLen); r.c == nil || k != r.k {
		r.k, r.c = k, r.t.chunk(churnKey{addr: r.addr, chunk: k}, fill)
		if r.c == nil {
			return nil
		}
	}
	return &r.c[snap%churnChunkLen]
}

// load returns the cell at snap, ok false while it is empty.
func (r *churnRow) load(snap int) (churnCounts, bool) {
	cell := r.cell(snap, false)
	if cell == nil {
		return churnCounts{}, false
	}
	v := cell.Load()
	return unpackChurn(v), v != 0
}

// store fills the cell at snap.
func (r *churnRow) store(snap int, c churnCounts) {
	r.cell(snap, true).Store(c.pack())
}
