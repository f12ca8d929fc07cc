package histstore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// At answers the time-travel point query: the PTR name held by ip at the
// newest snapshot at or before t. ok is false when the address had no
// record then; ErrBeforeHistory when t precedes the first snapshot.
func (s *Store) At(ip dnswire.IPv4, t time.Time) (dnswire.Name, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.at(ip, t)
}

// Range returns every observation (snapshot, address, name) within prefix
// and [from, to], ordered by date then address — the store-backed
// replacement for re-reading a campaign CSV.
func (s *Store) Range(p dnswire.Prefix, from, to time.Time) ([]dataset.Row, error) {
	return s.RangeContext(context.Background(), p, from, to)
}

// RangeContext is Range with cancellation: a query serving a disconnected
// client stops walking blocks as soon as ctx is done and returns
// ctx.Err().
func (s *Store) RangeContext(ctx context.Context, p dnswire.Prefix, from, to time.Time) ([]dataset.Row, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows, _, _, err := s.rangePage(ctx, p, from, to, RangeCursor{}, math.MaxInt)
	return rows, err
}

// RangeCursor is the resume position of a paginated Range scan: the next
// candidate (snapshot index, /24 address, last octet) to visit. Cursors
// are stable across appends — snapshot indices are append-only, and a /24
// first materialized after a page's window yields no rows inside it — so
// concatenating pages always reproduces the unpaginated answer. The zero
// cursor starts from the beginning.
type RangeCursor struct {
	Snap  int
	Block uint32
	Octet int
}

// RangePage is the paginated RangeContext: it emits up to limit rows
// starting at cur's position (in the same date-then-address order Range
// uses) and returns the cursor to resume from. more is false once the
// scan is complete; a page that fills limit exactly reports more=true
// and the next page may legitimately be empty. limit must be positive.
func (s *Store) RangePage(ctx context.Context, p dnswire.Prefix, from, to time.Time, cur RangeCursor, limit int) (rows []dataset.Row, next RangeCursor, more bool, err error) {
	if limit <= 0 {
		return nil, cur, false, fmt.Errorf("histstore: non-positive page limit %d", limit)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rangePage(ctx, p, from, to, cur, limit)
}

// EachSnapshot hands fn, for each snapshot within [from, to] in order,
// its non-empty /24s of p in address order, in the packed form
// AppendBlocks takes (a prefix narrower than a /24 gets the entries it
// covers): one forward walk per /24, seeded once. The window is fixed
// when the call starts. No lock is held while fn runs, so fn may append,
// compact (the walks then re-seed) or query; a Close shows up as
// ErrClosed. The blocks are valid until fn returns. An error from fn, or
// a done ctx, stops the walk and is returned.
func (s *Store) EachSnapshot(ctx context.Context, p dnswire.Prefix, from, to time.Time, fn func(time.Time, scanengine.Blocks) error) error {
	s.mu.RLock()
	times, gen, closed := s.times, s.compactions.Load(), s.closed
	lo, hi, ok := clipRange(times, from, to)
	r := reader{s: s}
	var bw blocksWalk
	bw.init(&r, slices.Clone(s.blocks.overlapping(p))) // appends insert into s.blocks in place
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return nil
	}
	var snap scanengine.Blocks
	for i := lo; i <= hi; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.RLock()
		err := ErrClosed
		if !s.closed {
			if g := s.compactions.Load(); g != gen {
				gen = g // the walks' files and refs may be gone
				bw.init(&r, bw.blocks)
			}
			snap = snap[:0]
			err = bw.step(ctx, &r, i, 0, func(q dnswire.Prefix, st blockState) bool {
				if e := st.within(p); len(e) > 0 {
					snap = append(snap, scanengine.Block{Prefix: q, Entries: e})
				}
				return true
			})
		}
		s.mu.RUnlock()
		if err != nil {
			return err
		}
		if err := fn(times[i], snap); err != nil {
			return err
		}
	}
	return nil
}

// ChurnDay is one snapshot's record-set delta counts within a prefix.
type ChurnDay struct {
	Date    time.Time `json:"date"`
	Added   int       `json:"added"`
	Removed int       `json:"removed"`
	Changed int       `json:"changed"`
}

// ChurnContext is Churn with cancellation, as RangeContext is Range with it.
func (s *Store) ChurnContext(ctx context.Context, p dnswire.Prefix, from, to time.Time) ([]ChurnDay, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.churn(ctx, p, from, to)
}

// The three queries. Callers hold the store's read lock, which keeps the
// writer's segment list and tail index still for the length of the walk.

// at answers the point query.
func (s *Store) at(ip dnswire.IPv4, t time.Time) (dnswire.Name, bool, error) {
	if s.closed {
		return "", false, ErrClosed
	}
	i, ok := s.snapAtOrBefore(t)
	if !ok {
		return "", false, ErrBeforeHistory
	}
	r := reader{s: s}
	b := writerWalk{w: s.w, p: ip.Slash24()}
	if err := b.seed(&r, i); err != nil {
		return "", false, err
	}
	name, ok := b.state.cur.lookup(ip[3])
	return name, ok, nil
}

// rangePage is the one range scan: snapshot by snapshot, block by block,
// octet by octet from cur's position, until limit rows are out.
func (s *Store) rangePage(ctx context.Context, p dnswire.Prefix, from, to time.Time, cur RangeCursor, limit int) (rows []dataset.Row, next RangeCursor, more bool, err error) {
	if s.closed {
		return nil, cur, false, ErrClosed
	}
	times := s.times
	lo, hi, ok := clipRange(times, from, to)
	if !ok {
		return nil, cur, false, nil
	}
	if cur.Snap > lo {
		lo = cur.Snap
	}
	if lo > hi {
		return nil, cur, false, nil
	}
	r := reader{s: s}
	var bw blocksWalk
	bw.init(&r, s.blocks.overlapping(p))
	for i := lo; i <= hi; i++ {
		first := 0
		if i == cur.Snap {
			first = bw.blocks.search(cur.Block) // the blocks below were an earlier page's
		}
		err := bw.step(ctx, &r, i, first, func(q dnswire.Prefix, st blockState) bool {
			addr := q.Addr.Uint32()
			for _, e := range st.within(p) {
				if i == cur.Snap && addr == cur.Block && int(e.Octet) < cur.Octet {
					continue
				}
				if len(rows) == limit {
					next, more = RangeCursor{Snap: i, Block: addr, Octet: int(e.Octet)}, true
					return false
				}
				rows = append(rows, dataset.Row{Date: times[i], IP: dnswire.IPv4{q.Addr[0], q.Addr[1], q.Addr[2], e.Octet}, PTR: e.Name})
			}
			return true
		})
		if err != nil || more {
			return rows, next, more, err
		}
		if i == lo && i < hi {
			// A window's snapshots hold about as many rows each: size the
			// result once instead of doubling into it.
			rows = slices.Grow(rows, min(limit-len(rows), len(rows)*(hi-i)))
		}
	}
	return rows, RangeCursor{}, false, nil
}

// blocksWalk moves the /24s of a prefix forward together, snapshot by
// snapshot: the step a range page and EachSnapshot share. A block's walk
// is seeded the first time a step reaches it, so a page that fills up
// inside its first snapshot never touches the blocks behind it.
type blocksWalk struct {
	blocks blockList
	walks  []writerWalk
}

// init readies a walk, unseeded, for each of blocks.
func (bw *blocksWalk) init(r *reader, blocks blockList) {
	bw.blocks, bw.walks = blocks, make([]writerWalk, len(blocks))
	for bi, q := range blocks {
		bw.walks[bi].init(r, q)
	}
}

// step brings the blocks from index first on to snapshot i, in address
// order, and hands fn each one's state there until fn returns false.
func (bw *blocksWalk) step(ctx context.Context, r *reader, i, first int, fn func(q dnswire.Prefix, st blockState) bool) error {
	for bi := first; bi < len(bw.blocks); bi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := bw.walks[bi].to(r, i)
		if err != nil {
			return err
		}
		if !fn(bw.blocks[bi], st) {
			return nil
		}
	}
	return nil
}

// churn counts each snapshot's changes within p. A /24 of a window at
// least as wide as a /24 is answered from the churn table where its cells
// are filled; the cells from its first empty one through its last are
// walked (churnWalk), which fills them. A narrower window counts only its
// own octets, so it always walks.
func (s *Store) churn(ctx context.Context, p dnswire.Prefix, from, to time.Time) ([]ChurnDay, error) {
	if s.closed {
		return nil, ErrClosed
	}
	times := s.times
	lo, hi, ok := clipRange(times, from, to)
	if !ok {
		return nil, nil
	}
	if lo == 0 {
		lo = 1 // the first snapshot has no baseline
	}
	if lo > hi {
		return nil, nil
	}
	out := make([]ChurnDay, hi-lo+1)
	for i := range out {
		out[i].Date = times[lo+i]
	}
	r := reader{s: s}
	var b writerWalk
	for _, q := range s.blocks.overlapping(p) {
		if p.Bits > 24 {
			err := churnWalk(ctx, &r, &b, q, p, lo, hi, func(i int, c churnCounts) { out[i-lo].add(c) })
			if err != nil {
				return nil, err
			}
			continue
		}
		row := churnRow{t: &s.churnCells, addr: q.Addr.Uint32()}
		first, last := lo, hi
		for ; first <= hi; first++ {
			c, ok := row.load(first)
			if !ok {
				break
			}
			out[first-lo].add(c)
		}
		if first > hi {
			continue
		}
		for ; last > first; last-- {
			c, ok := row.load(last)
			if !ok {
				break
			}
			out[last-lo].add(c)
		}
		err := churnWalk(ctx, &r, &b, q, q, first, last, func(i int, c churnCounts) {
			row.store(i, c)
			out[i-lo].add(c)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// churnWalk hands fn the counts of block q's changes within p at every
// snapshot from first through last, in order: one forward walk from the
// snapshot before first. Where a delta frame carried the block from one
// snapshot to the next its entries are the changes; where a base frame or
// a segment boundary did, the states on either side are diffed.
func churnWalk(ctx context.Context, r *reader, b *writerWalk, q, p dnswire.Prefix, first, last int, fn func(int, churnCounts)) error {
	b.init(r, q)
	if err := b.seed(r, first-1); err != nil {
		return err
	}
	for i := first; i <= last; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		how, prev, changes, err := b.step(r)
		if err != nil {
			return err
		}
		if how == stepReplaced {
			// The frame, if any, was a base: r.ents holds no delta to keep.
			r.ents = diffBlock(r.ents[:0], prev, b.state.cur)
			changes = r.ents
		}
		var c churnCounts
		for _, ch := range changes {
			if p.Bits > 24 && !p.Contains(dnswire.IPv4{q.Addr[0], q.Addr[1], q.Addr[2], ch.octet}) {
				continue
			}
			switch ch.kind {
			case scanengine.RecordAdded:
				c.added++
			case scanengine.RecordRemoved:
				c.removed++
			case scanengine.RecordChanged:
				c.changed++
			}
		}
		fn(i, c)
	}
	return nil
}

// FindName answers the inverted-index query: every (/24, interval) where
// a hostname token was present, without scanning the log. Tokens are the
// '-'-separated pieces of hostnames' first labels; possessive forms
// match their stem, so FindName("brian") reaches "brians-iphone".
func (s *Store) FindName(token string) []Posting {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.times) == 0 {
		return nil
	}
	return s.names.find(token, len(s.times)-1, s.times)
}

// clipRange clips [from, to] to indices of a sorted instant slice.
func clipRange(times []time.Time, from, to time.Time) (lo, hi int, ok bool) {
	if len(times) == 0 || to.Before(from) {
		return 0, 0, false
	}
	lo = sort.Search(len(times), func(i int) bool { return !times[i].Before(from) })
	hi = sort.Search(len(times), func(i int) bool { return times[i].After(to) }) - 1
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// WriterStats summarizes the store's writer within Stats.
type WriterStats struct {
	// ID is the writer identity.
	ID string `json:"id"`
	// Snapshots is the writer's total snapshot count; TailSnapshots is
	// how many still live in the active tail (the rest are sealed).
	Snapshots     int `json:"snapshots"`
	TailSnapshots int `json:"tail_snapshots"`
	// Segments is the writer's sealed segment count.
	Segments int `json:"segments"`
}

// CompactionStats summarizes compaction activity within Stats.
type CompactionStats struct {
	// Runs counts completed compactions; SealedSnapshots the snapshots
	// they moved into segments; ReclaimedBytes the tail bytes the
	// segment rewrite saved (negative if segments grew the store).
	Runs            uint64 `json:"runs"`
	SealedSnapshots uint64 `json:"sealed_snapshots"`
	ReclaimedBytes  int64  `json:"reclaimed_bytes"`
	// Running reports a compaction in flight right now.
	Running bool `json:"running"`
}

// Stats is a point-in-time summary of the store, and the "store" block
// of rdnsd's /v1/stats: the key order and the omitempty set are the
// wire's.
type Stats struct {
	// Snapshots is the number of snapshots in the timeline.
	Snapshots int `json:"snapshots"`
	// Blocks is the number of indexed /24 blocks.
	Blocks int `json:"blocks"`
	// BaseFrames and DeltaFrames count the block frames across every
	// tail and segment.
	BaseFrames  int `json:"base_frames"`
	DeltaFrames int `json:"delta_frames"`
	// Bytes is the total store size (tails plus segments).
	Bytes int64 `json:"bytes"`
	// Reconstructions counts walk seeds that had to rebuild a block
	// state from frames (frames a walk then advances through are not
	// reconstructions).
	Reconstructions uint64 `json:"reconstructions"`
	// CacheHits/CacheMisses/CacheEntries describe the reconstruction
	// cache (zero when disabled); it is probed once per walk seed.
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// TailBytes and SealedBytes split Bytes.
	TailBytes   int64 `json:"tail_bytes,omitempty"`
	SealedBytes int64 `json:"sealed_bytes,omitempty"`
	// Segments counts sealed segments; each keeps its index and its file
	// open for the handle's life.
	Segments int `json:"segments,omitempty"`
	// TierLoads is always 0, so omitempty keeps it off the wire: it is
	// kept for bench/, which reads it.
	TierLoads uint64 `json:"tier_loads,omitempty"`
	// Writers describes the store's writer, as a list of one: the wire's
	// shape.
	Writers []WriterStats `json:"writers,omitempty"`
	// Compaction summarizes compaction activity.
	Compaction CompactionStats `json:"compaction"`
}

// Stats returns the store's current summary.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hits, misses := s.cache.counters()
	st := Stats{
		Snapshots:       len(s.times),
		Blocks:          len(s.blocks),
		BaseFrames:      s.baseFrames,
		DeltaFrames:     s.deltaFrames,
		Bytes:           s.bytes,
		Reconstructions: s.reconstructions.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEntries:    s.cache.len(),
		Compaction: CompactionStats{
			Runs:            s.compactions.Load(),
			SealedSnapshots: s.compactSealed.Load(),
			ReclaimedBytes:  s.compactReclaim.Load(),
			Running:         s.compactRunning.Load(),
		},
	}
	w := s.w
	st.Writers = []WriterStats{{
		ID:            w.id,
		Snapshots:     len(s.times),
		TailSnapshots: len(s.times) - w.tailFirst,
		Segments:      len(w.segs),
	}}
	st.Segments = len(w.segs)
	st.TailBytes = w.tailSize
	for _, g := range w.segs {
		st.SealedBytes += g.size
	}
	return st
}
