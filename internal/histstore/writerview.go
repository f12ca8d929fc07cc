package histstore

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// WriterView is a read-only single-writer lens over a shared store: the
// same queries the merged surface answers, restricted to what one writer
// (one vantage point, one campaign) actually observed — no merge, no
// other writer's records shadowing or filling in. It is the read side of
// per-writer tails: internal/vantage's disagreement analyzer
// reconstructs each vantage's view through it. Views are cheap handles; they share the store's files, cache, and
// locks and stay valid across appends and compactions.
type WriterView struct {
	s  *Store
	wi int
	id string
}

// WriterView returns the lens for writer id, which must be one of
// Writers(). The view answers from the writer's segments and tail only.
func (s *Store) WriterView(id string) (*WriterView, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	for wi, w := range s.writers {
		if w.id == id {
			return &WriterView{s: s, wi: wi, id: id}, nil
		}
	}
	return nil, fmt.Errorf("histstore: unknown writer %q", id)
}

// Times returns the writer's own snapshot instants in append order — a
// subset of the store's merged timeline.
func (v *WriterView) Times() []time.Time {
	v.s.mu.RLock()
	defer v.s.mu.RUnlock()
	w := v.s.writers[v.wi]
	return append([]time.Time(nil), w.times...)
}

// BlockAt returns the writer's full /24 state at its newest snapshot at
// or before t — a copy, safe to hold and mutate. A nil map means the
// writer held no records in the block (including before its history).
func (v *WriterView) BlockAt(p dnswire.Prefix, t time.Time) (map[byte]dnswire.Name, error) {
	v.s.mu.RLock()
	defer v.s.mu.RUnlock()
	if v.s.closed {
		return nil, ErrClosed
	}
	w := v.s.writers[v.wi]
	ls := sort.Search(len(w.times), func(i int) bool { return w.times[i].After(t) }) - 1
	r := reader{s: v.s}
	defer r.release()
	b := writerWalk{w: w, p: p}
	if err := b.seed(&r, ls); err != nil || len(b.state.cur) == 0 {
		return nil, err
	}
	return b.state.cur.toMap(), nil
}

// Blocks lists every /24 the store indexes across writers, sorted by
// address — the block universe per-writer views diverge within.
func (s *Store) Blocks() []dnswire.Prefix {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.blocks)
}

// WriterDivergence summarizes how one writer's live state relates to the
// merged live view, octet by octet: Agreements hold the merged winner's
// name, Conflicts hold a different one (the writer is shadowed by a
// lower-id winner), Missing are merged records the writer lacks, and
// Exclusive are records only this writer holds. Records is the writer's
// live total (Agreements + Conflicts).
type WriterDivergence struct {
	ID         string `json:"id"`
	Records    int    `json:"records"`
	Agreements int    `json:"agreements"`
	Conflicts  int    `json:"conflicts"`
	Missing    int    `json:"missing"`
	Exclusive  int    `json:"exclusive"`
}

// DivergenceStats is the store's live cross-writer disagreement summary:
// the per-writer breakdown against the merged view. Addresses is the
// merged live record count. A solo store reports full agreement.
type DivergenceStats struct {
	Addresses int                `json:"addresses"`
	Writers   []WriterDivergence `json:"writers"`
}

// Divergence computes the live per-writer disagreement summary — the
// /v1/stats?divergence=1 block. It walks every indexed /24 once; cost is
// proportional to live records times writers.
func (s *Store) Divergence() DivergenceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := DivergenceStats{Writers: make([]WriterDivergence, len(s.writers))}
	for i, w := range s.writers {
		out.Writers[i].ID = w.id
	}
	for _, p := range s.blocks {
		merged := s.cur[p]
		out.Addresses += len(merged)
		for _, m := range merged {
			holders := 0
			holder := -1
			for wi, w := range s.writers {
				d := &out.Writers[wi]
				name, ok := w.cur[p].lookup(m.Octet)
				switch {
				case !ok:
					d.Missing++
					continue
				case name == m.Name:
					d.Agreements++
				default:
					d.Conflicts++
				}
				d.Records++
				holders++
				holder = wi
			}
			if holders == 1 && len(s.writers) > 1 {
				out.Writers[holder].Exclusive++
			}
		}
	}
	return out
}
