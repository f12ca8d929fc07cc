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

// BlockAt returns the full /24 state at the newest snapshot at or before
// t — a copy, safe to hold and mutate. A nil map means the block held no
// records then (including before history).
func (s *Store) BlockAt(p dnswire.Prefix, t time.Time) (map[byte]dnswire.Name, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	i, ok := s.snapAtOrBefore(t)
	if !ok {
		return nil, nil
	}
	r := reader{s: s}
	b := writerWalk{w: s.w, p: p}
	if err := b.seed(&r, i); err != nil || len(b.state.cur) == 0 {
		return nil, err
	}
	return b.state.cur.toMap(), nil
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
// octet by octet from cur's position, until limit rows are out. A block's
// walk is seeded the first time the scan visits it — a page that fills up
// inside the first snapshot never touches the blocks behind it.
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
	blocks := s.blocks.overlapping(p)
	r := reader{s: s}
	walks := make([]writerWalk, len(blocks))
	for bi, q := range blocks {
		walks[bi].init(&r, q)
	}
	for i := lo; i <= hi; i++ {
		for bi, q := range blocks {
			addr := q.Addr.Uint32()
			startOctet := 0
			if i == cur.Snap {
				if addr < cur.Block {
					continue // consumed by an earlier page
				}
				if addr == cur.Block {
					startOctet = cur.Octet
					if startOctet > 255 {
						continue // block fully consumed at this snapshot
					}
				}
			}
			if err := ctx.Err(); err != nil {
				return rows, next, false, err
			}
			st, err := walks[bi].to(&r, i)
			if err != nil {
				return rows, next, false, err
			}
			for _, e := range st {
				if int(e.Octet) < startOctet {
					continue
				}
				ip := dnswire.IPv4{q.Addr[0], q.Addr[1], q.Addr[2], e.Octet}
				if p.Bits > 24 && !p.Contains(ip) {
					continue
				}
				if len(rows) == limit {
					return rows, RangeCursor{Snap: i, Block: addr, Octet: int(e.Octet)}, true, nil
				}
				rows = append(rows, dataset.Row{Date: times[i], IP: ip, PTR: e.Name})
			}
		}
		if i == lo && i < hi {
			// A window's snapshots hold about as many rows each: size the
			// result once instead of doubling into it.
			rows = slices.Grow(rows, min(limit-len(rows), len(rows)*(hi-i)))
		}
	}
	return rows, RangeCursor{}, false, nil
}

// churn counts each snapshot's changes within p. Every block is one
// forward walk from the snapshot before the window: where a delta frame
// carried the block from one snapshot to the next its entries are the
// changes; where a base frame or a segment boundary did, the states on
// either side are diffed.
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
	var diff []deltaEntry
	for _, q := range s.blocks.overlapping(p) {
		b.init(&r, q)
		if err := b.seed(&r, lo-1); err != nil {
			return nil, err
		}
		for i := lo; i <= hi; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			how, prev, changes, err := b.step(&r)
			if err != nil {
				return nil, err
			}
			switch how {
			case stepNone:
				continue
			case stepReplaced:
				diff = diffBlock(diff[:0], prev, b.state.cur)
				changes = diff
			}
			day := &out[i-lo]
			for _, ch := range changes {
				if p.Bits > 24 && !p.Contains(dnswire.IPv4{q.Addr[0], q.Addr[1], q.Addr[2], ch.octet}) {
					continue
				}
				switch ch.kind {
				case scanengine.RecordAdded:
					day.Added++
				case scanengine.RecordRemoved:
					day.Removed++
				case scanengine.RecordChanged:
					day.Changed++
				}
			}
		}
	}
	return out, nil
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
