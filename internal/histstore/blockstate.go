package histstore

import (
	"slices"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// blockState is the record set of one /24, packed: its entries sorted by
// last octet, no octet twice — the shape a base frame decodes to. States
// are immutable once built: the live view, the reconstruction cache and
// every walk share them, so a transition always writes a new slice.
type blockState []baseEntry

// lookup returns the name held at octet.
func (st blockState) lookup(octet byte) (dnswire.Name, bool) {
	lo, hi := 0, len(st)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st[mid].octet < octet {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st) && st[lo].octet == octet {
		return st[lo].name, true
	}
	return "", false
}

// toMap copies the state into the map shape the public API hands out.
func (st blockState) toMap() map[byte]dnswire.Name {
	out := make(map[byte]dnswire.Name, len(st))
	for _, e := range st {
		out[e.octet] = e.name
	}
	return out
}

// sortByOctet orders a freshly gathered state.
func (st blockState) sortByOctet() {
	slices.SortFunc(st, func(a, b baseEntry) int { return int(a.octet) - int(b.octet) })
}

// diffBlock appends to dst the octet-sorted changes turning old into new.
func diffBlock(dst []deltaEntry, old, new blockState) []deltaEntry {
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || (i < len(old) && old[i].octet < new[j].octet):
			dst = append(dst, deltaEntry{kind: scanengine.RecordRemoved, octet: old[i].octet, old: old[i].name})
			i++
		case i == len(old) || new[j].octet < old[i].octet:
			dst = append(dst, deltaEntry{kind: scanengine.RecordAdded, octet: new[j].octet, new: new[j].name})
			j++
		default:
			if old[i].name != new[j].name {
				dst = append(dst, deltaEntry{kind: scanengine.RecordChanged, octet: old[i].octet, old: old[i].name, new: new[j].name})
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
		for i < len(st) && st[i].octet < e.octet {
			dst = append(dst, st[i])
			i++
		}
		if i < len(st) && st[i].octet == e.octet {
			i++
		}
		if e.kind != scanengine.RecordRemoved {
			dst = append(dst, baseEntry{octet: e.octet, name: e.new})
		}
	}
	return append(dst, st[i:]...)
}

// mergeStates appends to dst the priority merge of states: the first state
// holding an octet wins it. This is the one rule by which writers' claims
// on an address resolve — live, at replay, and in every query. dst must
// not share memory with any of states.
func mergeStates(dst blockState, states []blockState) blockState {
	switch len(states) {
	case 0:
		return dst
	case 1:
		return append(dst, states[0]...)
	}
	var few [8]int // cursors of a typical writer count stay on the stack
	pos := few[:]
	if len(states) > len(few) {
		pos = make([]int, len(states))
	}
	for {
		best := -1
		var octet byte
		for k, st := range states {
			if pos[k] < len(st) && (best < 0 || st[pos[k]].octet < octet) {
				best, octet = k, st[pos[k]].octet
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, states[best][pos[best]])
		for k, st := range states {
			if pos[k] < len(st) && st[pos[k]].octet == octet {
				pos[k]++
			}
		}
	}
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
