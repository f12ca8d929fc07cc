package histstore

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
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
	if len(s.times) >= maxSnapshots {
		return fmt.Errorf("histstore: timeline is full at %d snapshots", len(s.times))
	}

	// Group the snapshot by /24, every block's entries carved from one
	// array: the states below are working copies, and what outlives the
	// append is cloned into the plan.
	counts := make(map[dnswire.Prefix]int, len(w.cur))
	for ip := range recs {
		counts[ip.Slash24()]++
	}
	entries := make([]baseEntry, len(recs))
	newStates := make(map[dnswire.Prefix]blockState, len(counts))
	for p, n := range counts {
		newStates[p], entries = entries[:0:n], entries[n:]
	}
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

	local := len(w.times)
	base := w.tailSize
	buf := appendFrame(nil, frameSnap, encodeSnapBody(local, date.Unix()))
	var plan []frameEffect
	bases := 0
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
		case w.cadence.due(p, local, s.baseEvery):
			kind = frameBase // compact the delta chain
		case len(changes) > 0:
			kind = frameDelta
		default:
			continue // unchanged
		}
		start := len(buf)
		if kind == frameBase {
			buf = appendFrame(buf, frameBase, encodeBaseBody(local, p, newState))
			bases++
		} else {
			buf = appendFrame(buf, frameDelta, encodeDeltaBody(local, p, changes))
		}
		// The state outlives the append as the block's live state: keep it
		// without the slack its gathering left behind.
		plan = append(plan, frameEffect{
			p:       p,
			ref:     blockRef{snap: local, kind: kind, off: base + int64(start), length: len(buf) - start},
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
