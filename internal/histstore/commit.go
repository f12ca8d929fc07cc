package histstore

import (
	"time"

	"rdnsprivacy/internal/dnswire"
)

// The write path. A snapshot enters the store as a group — a snapshot
// header and the block frames under it — from one of two places: Append,
// which has just encoded the group and written it to the tail, and replay,
// which reads groups back through a sequencer (tail.go). Both reduce the
// group to the same thing, one frameEffect per block frame, and hand it to
// commitGroup, the one function that makes a snapshot part of the store.
// That a store which stayed open and one reopened from its files agree —
// on every answer, every statistic, and the bytes of every later append —
// follows from there being one of it.

// frameEffect is what one block frame did: block p went to state through
// changes. ref locates the frame in its file.
type frameEffect struct {
	p       dnswire.Prefix
	ref     blockRef
	changes []deltaEntry
	state   blockState
}

// decode fills in the effect of the block frame at fe.ref from its body,
// against cur, the block states before the frame's snapshot: a base's
// changes are its diff against the state it replaces, a delta's state is
// the old one patched. The changes are appended to arena, which is
// returned grown. It is the write side's one frame decoder — replay runs
// it against a writer's live states, compaction against the states it
// carries through the span it seals. The read walk's reader.apply stays
// apart: it decodes into a walk's two recycled buffers and derives no
// changes for a base, and sharing this one would cost it an allocation
// per frame.
func (fe *frameEffect) decode(body []byte, cur map[dnswire.Prefix]blockState, arena []deltaEntry) ([]deltaEntry, error) {
	start := len(arena)
	if fe.ref.kind == frameBase {
		_, p, state, err := decodeBaseBody(body, nil)
		if err != nil {
			return arena, err
		}
		fe.p, fe.state = p, state
		arena = diffBlock(arena, cur[p], state)
	} else {
		_, p, entries, err := decodeDeltaBody(body, arena)
		if err != nil {
			return arena, err
		}
		arena = entries
		fe.p, fe.state = p, applyDelta(nil, cur[p], arena[start:])
	}
	fe.changes = arena[start:]
	return arena, nil
}

// cadence is a per-block frame schedule: where each block's last base
// frame sits and how many delta frames follow it, which together decide
// when a delta chain is re-based. A writer keeps one for its appends;
// compaction keeps one for the segment it lays out.
type cadence map[dnswire.Prefix]blockCadence

type blockCadence struct {
	lastBase int // snapshot of the block's last base frame
	deltas   int // delta frames since
}

// note records that block p got a frame of the given kind at snapshot snap.
func (c cadence) note(p dnswire.Prefix, snap int, kind byte) {
	if kind == frameBase {
		c[p] = blockCadence{lastBase: snap}
		return
	}
	bc := c[p]
	bc.deltas++
	c[p] = bc
}

// due reports whether block p's delta chain should be re-based at
// snapshot snap: it has spanned every snapshots and holds a delta.
func (c cadence) due(p dnswire.Prefix, snap, every int) bool {
	bc := c[p]
	return snap-bc.lastBase >= every && bc.deltas > 0
}

// commitGroup makes one snapshot group part of the store. The snapshot
// joins the timeline; each frame's effect goes into the live states and
// the name index — the transition Append and replay both run, which is
// what makes reopen bit-identical — and into the block list, the writer's
// cadence and the frame counters. inTail says the frames sit in the
// writer's tail, whose block index then gains their refs — a segment's
// index is its footer. Callers hold the write lock (or, during Open, the
// only reference) and have checked that the snapshot follows its
// predecessors and the timeline has room.
func (s *Store) commitGroup(when time.Time, inTail bool, effects []frameEffect) {
	w := s.w
	snap := len(s.times)
	s.times = append(s.times, when)
	for i := range effects {
		fe := &effects[i]
		if inTail {
			w.tailBlocks[fe.p] = append(w.tailBlocks[fe.p], fe.ref)
		}
		s.blocks.add(fe.p)
		setState(s.cur, fe.p, fe.state)
		s.names.apply(fe.changes, fe.p, snap)
		w.cadence.note(fe.p, snap, fe.ref.kind)
		if fe.ref.kind == frameBase {
			s.baseFrames++
		} else {
			s.deltaFrames++
		}
	}
}
