package histstore

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// Append adds one snapshot to this store's writer tail: the record set
// the campaign's sweep produced at date. Dates must be strictly
// increasing across the merged timeline. Blocks are written as deltas
// against the writer's previous snapshot, or as fresh bases on first
// appearance and whenever a delta chain has spanned the base interval
// (the within-tail compaction mechanism; segment compaction later
// rewrites these runs sparser).
func (s *Store) Append(date time.Time, recs scanengine.RecordSet) error {
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
	local := len(w.times)
	gi := len(s.times)
	if gi >= maxSnapshots {
		return fmt.Errorf("histstore: timeline is full at %d snapshots", gi)
	}

	// Group the snapshot by /24.
	newStates := make(map[dnswire.Prefix]blockState)
	for ip, name := range recs {
		p := ip.Slash24()
		newStates[p] = append(newStates[p], baseEntry{octet: ip[3], name: name})
	}
	for _, st := range newStates {
		st.sortByOctet()
	}

	// The union of the writer's currently-live and newly-seen blocks,
	// sorted so the log layout (and thus the file bytes) is deterministic.
	prefixes := make(map[dnswire.Prefix]bool, len(newStates)+len(w.cur))
	for p := range newStates {
		prefixes[p] = true
	}
	for p := range w.cur {
		prefixes[p] = true
	}
	order := make([]dnswire.Prefix, 0, len(prefixes))
	for p := range prefixes {
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Addr.Uint32() < order[j].Addr.Uint32() })

	type pending struct {
		p       dnswire.Prefix
		kind    byte
		changes []deltaEntry
		state   blockState
		off     int64 // relative to the buffer start
		length  int
	}
	buf := appendFrame(nil, frameSnap, encodeSnapBody(local, date.Unix()))
	var plan []pending
	for _, p := range order {
		newState := newStates[p]
		changes := diffBlock(nil, w.cur[p], newState)
		known := w.known.has(p)
		var kind byte
		switch {
		case !known && len(newState) > 0:
			kind = frameBase
		case !known:
			continue // never materialized and still empty
		case local-w.lastBase[p] >= s.baseEvery && w.deltasSince[p] > 0:
			kind = frameBase // compact the delta chain
		case len(changes) > 0:
			kind = frameDelta
		default:
			continue // unchanged
		}
		start := int64(len(buf))
		if kind == frameBase {
			buf = appendFrame(buf, frameBase, encodeBaseBody(local, p, newState))
		} else {
			buf = appendFrame(buf, frameDelta, encodeDeltaBody(local, p, changes))
		}
		// The state outlives the append as the block's live state: keep it
		// without the slack its gathering left behind.
		plan = append(plan, pending{p: p, kind: kind, changes: changes, state: slices.Clone(newState), off: start, length: int(int64(len(buf)) - start)})
	}

	if _, err := w.tailF.WriteAt(buf, w.tailSize); err != nil {
		w.tailF.Truncate(w.tailSize) // keep the tail at the last good boundary
		return fmt.Errorf("histstore: append: %w", err)
	}
	if s.syncEach {
		if err := w.tailF.Sync(); err != nil {
			return fmt.Errorf("histstore: append: %w", err)
		}
	}

	// Commit: indexes, state, stats. Mirrors applyGroup exactly.
	base := w.tailSize
	w.tailSnapOffsets = append(w.tailSnapOffsets, base)
	w.tailSize += int64(len(buf))
	s.bytes += int64(len(buf))
	s.times = append(s.times, date)
	s.snapWriter = append(s.snapWriter, w.idx)
	s.snapLocal = append(s.snapLocal, local)
	w.times = append(w.times, date)
	w.globalIdx = append(w.globalIdx, gi)
	for _, pd := range plan {
		w.tailBlocks[pd.p] = append(w.tailBlocks[pd.p], blockRef{
			snap: local, kind: pd.kind, off: base + pd.off, length: pd.length,
		})
		w.known.add(pd.p)
		s.blocks.add(pd.p)
		s.applyFrame(w, gi, pd.p, pd.changes, pd.state)
		if pd.kind == frameBase {
			w.lastBase[pd.p] = local
			w.deltasSince[pd.p] = 0
			s.baseFrames++
			s.met.baseFrames.Inc()
		} else {
			w.deltasSince[pd.p]++
			s.deltaFrames++
			s.met.deltaFrames.Inc()
		}
	}
	m := s.met
	m.appends.Inc()
	m.appendBytes.Add(uint64(len(buf)))
	s.publishGauges()
	return nil
}
