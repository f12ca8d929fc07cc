package histstore

import (
	"slices"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// blockState is the record set of one /24, packed: its entries sorted by
// last octet, no octet twice — the shape a base frame decodes to, and the
// one a sweep's scanengine.Block carries, so a snapshot arrives as block
// states. States
// are immutable once built: the live view, the reconstruction cache and
// every walk share them, so a transition always writes a new slice.
type blockState []baseEntry

// lookup returns the name held at octet.
func (st blockState) lookup(octet byte) (dnswire.Name, bool) {
	lo, hi := 0, len(st)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st[mid].Octet < octet {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st) && st[lo].Octet == octet {
		return st[lo].Name, true
	}
	return "", false
}

// toMap copies the state into the map shape the public API hands out.
func (st blockState) toMap() map[byte]dnswire.Name {
	out := make(map[byte]dnswire.Name, len(st))
	for _, e := range st {
		out[e.Octet] = e.Name
	}
	return out
}

// diffBlock appends to dst the octet-sorted changes turning old into new.
func diffBlock(dst []deltaEntry, old, new blockState) []deltaEntry {
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || (i < len(old) && old[i].Octet < new[j].Octet):
			dst = append(dst, deltaEntry{kind: scanengine.RecordRemoved, octet: old[i].Octet, old: old[i].Name})
			i++
		case i == len(old) || new[j].Octet < old[i].Octet:
			dst = append(dst, deltaEntry{kind: scanengine.RecordAdded, octet: new[j].Octet, new: new[j].Name})
			j++
		default:
			if old[i].Name != new[j].Name {
				dst = append(dst, deltaEntry{kind: scanengine.RecordChanged, octet: old[i].Octet, old: old[i].Name, new: new[j].Name})
			}
			i++
			j++
		}
	}
	return dst
}

// applyDelta appends to dst the state st becomes under a delta frame's
// octet-sorted entries: a removal drops its octet, an addition or change
// sets it. dst must not share memory with st.
func applyDelta(dst, st blockState, entries []deltaEntry) blockState {
	if n := len(st) + len(entries); cap(dst)-len(dst) < n {
		dst = slices.Grow(dst, n)
	}
	i := 0
	for _, e := range entries {
		for i < len(st) && st[i].Octet < e.octet {
			dst = append(dst, st[i])
			i++
		}
		if i < len(st) && st[i].Octet == e.octet {
			i++
		}
		if e.kind != scanengine.RecordRemoved {
			dst = append(dst, baseEntry{Octet: e.octet, Name: e.new})
		}
	}
	return append(dst, st[i:]...)
}

// evolving is a block state under forward replay. cur is the state; once
// cur is a buffer the replay itself filled (not a cached or live state
// others share) the buffer it replaces is recycled as the next
// transition's scratch, so a replay allocates two buffers, not one per
// frame.
type evolving struct {
	cur, spare blockState
	owned      bool
}

// share starts (or restarts) the replay from a state others may hold.
func (e *evolving) share(st blockState) {
	if e.owned {
		e.spare = e.cur
	}
	e.cur, e.owned = st, false
}

// scratch is where the next transition may build its result.
func (e *evolving) scratch() blockState { return e.spare[:0] }

// replace installs a state built in scratch (or freshly allocated) and
// returns the state it replaced, which stays intact until the next
// transition builds in its buffer.
func (e *evolving) replace(st blockState) (prev blockState) {
	prev = e.cur
	if e.owned {
		e.spare = prev
	} else {
		e.spare = nil
	}
	e.cur, e.owned = st, true
	return prev
}
