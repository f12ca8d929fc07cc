package histstore

import (
	"fmt"
	"slices"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
)

// Append adds one snapshot to this store's writer tail: the record set
// the campaign's sweep produced at date. It is AppendBlocks of the set
// packed.
func (s *Store) Append(date time.Time, recs scanengine.RecordSet) error {
	return s.AppendBlocks(date, scanengine.Pack(recs))
}

// AppendBlocks adds one snapshot, in the packed form a sweep produces, to
// this store's writer tail. Dates must be strictly increasing across the
// merged timeline; blocks must be /24s in address order, each one's
// entries in octet order with no octet twice (what scanengine.Pack and a
// sweep's Snapshot.Blocks hold). Blocks are written as deltas against the
// writer's previous snapshot, or as fresh bases on first appearance and
// whenever a delta chain has spanned the base interval (the within-tail
// compaction mechanism; segment compaction later rewrites these runs
// sparser).
func (s *Store) AppendBlocks(date time.Time, blocks scanengine.Blocks) error {
	if err := checkBlocks(blocks); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.readOnly || s.self == nil {
		return ErrReadOnly
	}
	w := s.self
	date = date.UTC().Truncate(time.Second)
	if len(s.times) > 0 && !date.After(s.times[len(s.times)-1]) {
		return fmt.Errorf("%w: %s is not after %s", ErrOutOfOrder,
			date.Format(time.RFC3339), s.times[len(s.times)-1].Format(time.RFC3339))
	}
	if len(s.times) >= maxSnapshots {
		return fmt.Errorf("histstore: timeline is full at %d snapshots", len(s.times))
	}

	local := len(w.times)
	base := w.tailSize
	sc := &w.scratch
	sc.body = appendSnapBody(sc.body[:0], local, date.Unix())
	buf := appendFrame(sc.buf[:0], frameSnap, sc.body)
	// Every block's changes share one arena. A writer's first snapshot
	// adds every record it holds, so that one grows it once, to size.
	changesArena := sc.changes[:0]
	if len(w.cur) == 0 {
		records := 0
		for _, b := range blocks {
			records += len(b.Entries)
		}
		changesArena = slices.Grow(changesArena, records)
	}
	var plan []frameEffect
	bases := 0
	// One walk in address order over the union of the blocks the writer
	// has ever recorded (a superset of its live ones) and the snapshot's:
	// the log layout, and thus the file bytes, follows it.
	known := w.known
	for i, j := 0, 0; i < len(known) || j < len(blocks); {
		var (
			p        dnswire.Prefix
			newState blockState
			isKnown  bool
		)
		if j == len(blocks) || (i < len(known) && known[i].Addr.Uint32() < blocks[j].Prefix.Addr.Uint32()) {
			p, isKnown = known[i], true
			i++
		} else {
			p, newState = blocks[j].Prefix, blocks[j].Entries
			if isKnown = i < len(known) && known[i] == p; isKnown {
				i++
			}
			j++
		}
		old := w.cur[p]
		if len(old) == 0 && len(newState) == 0 {
			continue // empty before and after
		}
		start := len(changesArena)
		changesArena = diffBlock(changesArena, old, newState)
		changes := changesArena[start:]
		var kind byte
		switch {
		case !isKnown:
			kind = frameBase
		case w.cadence.due(p, local, s.baseEvery):
			kind = frameBase // compact the delta chain
		case len(changes) > 0:
			kind = frameDelta
		default:
			continue // unchanged
		}
		at := len(buf)
		if kind == frameBase {
			sc.body = appendBaseBody(sc.body[:0], local, p, newState)
			bases++
		} else {
			sc.body = appendDeltaBody(sc.body[:0], local, p, changes)
		}
		buf = appendFrame(buf, kind, sc.body)
		// The state outlives the append as the block's live state: keep a
		// copy of its own, not the caller's.
		plan = append(plan, frameEffect{
			p:       p,
			ref:     blockRef{snap: local, kind: kind, off: base + int64(at), length: len(buf) - at},
			changes: changes,
			state:   slices.Clone(newState),
		})
	}

	err := testutil.Fault("histstore.append.write")
	if err == nil {
		_, err = w.tailF.WriteAt(buf, base)
	}
	if err == nil && s.syncEach {
		if err = testutil.Fault("histstore.append.sync"); err == nil {
			err = w.tailF.Sync()
		}
	}
	if err != nil {
		// Keep the tail at the last good boundary: whatever reached the file
		// is in no index, and the next append starts where this one did.
		if terr := w.tailF.Truncate(base); terr != nil {
			return fmt.Errorf("histstore: append: %w (and the tail could not be cut back to %d bytes: %v)", err, base, terr)
		}
		return fmt.Errorf("histstore: append: %w", err)
	}

	s.commitGroup(w, date, true, plan)
	sc.buf, sc.changes = buf[:0], changesArena[:0]
	w.tailSize += int64(len(buf))
	s.bytes += int64(len(buf))
	m := s.met
	m.appends.Inc()
	m.appendBytes.Add(uint64(len(buf)))
	m.baseFrames.Add(uint64(bases))
	m.deltaFrames.Add(uint64(len(plan) - bases))
	s.publishGauges()
	return nil
}

// checkBlocks rejects a snapshot that is not in packed form, before any of
// it is encoded: frames are written in the order given and a block's
// entries are gap-coded as they stand, so a misordered input would write a
// log that cannot be read back.
func checkBlocks(blocks scanengine.Blocks) error {
	for i, b := range blocks {
		if b.Prefix.Bits != 24 || b.Prefix.Addr[3] != 0 {
			return fmt.Errorf("histstore: append: block %s is not a /24", b.Prefix)
		}
		if i > 0 && blocks[i-1].Prefix.Addr.Uint32() >= b.Prefix.Addr.Uint32() {
			return fmt.Errorf("histstore: append: block %s does not follow %s", b.Prefix, blocks[i-1].Prefix)
		}
		for k := 1; k < len(b.Entries); k++ {
			if b.Entries[k-1].Octet >= b.Entries[k].Octet {
				return fmt.Errorf("histstore: append: block %s: octet %d does not follow %d", b.Prefix, b.Entries[k].Octet, b.Entries[k-1].Octet)
			}
		}
	}
	return nil
}

// appendScratch is the buffers a writer's appends reuse, kept between
// them: the group's encoded bytes (written to the tail, then no longer
// needed), one frame body at a time, and the blocks' changes, which the
// commit reads and does not keep.
type appendScratch struct {
	buf, body []byte
	changes   []deltaEntry
}
