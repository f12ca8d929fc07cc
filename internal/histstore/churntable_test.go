package histstore

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rdnsprivacy/internal/dnswire"
)

// rangeChurn is the churn oracle: the per-snapshot added, removed and
// changed counts within p over [from, to], got by diffing consecutive
// snapshots of st's Range rows. Range never reads the churn table.
func rangeChurn(t *testing.T, st *Store, p dnswire.Prefix, from, to time.Time) []ChurnDay {
	t.Helper()
	times := st.Times()
	lo, hi, ok := clipRange(times, from, to)
	if lo == 0 {
		lo = 1
	}
	if !ok || lo > hi {
		return nil
	}
	rows, err := st.Range(p, times[lo-1], times[hi])
	if err != nil {
		t.Fatalf("Range(%s): %v", p, err)
	}
	days := make([]map[dnswire.IPv4]dnswire.Name, hi-lo+2)
	for i := range days {
		days[i] = map[dnswire.IPv4]dnswire.Name{}
	}
	k := 0
	for _, r := range rows {
		for !times[lo-1+k].Equal(r.Date) {
			k++
		}
		days[k][r.IP] = r.PTR
	}
	out := make([]ChurnDay, 0, hi-lo+1)
	for i := 1; i < len(days); i++ {
		d := ChurnDay{Date: times[lo-1+i]}
		for ip, old := range days[i-1] {
			if now, ok := days[i][ip]; !ok {
				d.Removed++
			} else if now != old {
				d.Changed++
			}
		}
		for ip := range days[i] {
			if _, ok := days[i-1][ip]; !ok {
				d.Added++
			}
		}
		out = append(out, d)
	}
	return out
}

// bytes is what the table's cells take.
func (t *churnTable) bytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.chunks)) * int64(unsafe.Sizeof(churnChunk{}))
}

// churnWindow is one churn query of TestChurnMatchesRangeDiff.
type churnWindow struct {
	p        dnswire.Prefix
	from, to time.Time
}

// TestChurnMatchesRangeDiff holds Churn to the diff of consecutive Range
// snapshots over /16, /24 and sub-/24 windows of a store with sealed
// segments and a tail: on a handle whose table is empty, again once the
// table has served every /24 of the windows (with no reconstruction), on
// the writer after it appended and compacted past cells it had filled,
// and under eight concurrent callers.
func TestChurnMatchesRangeDiff(t *testing.T) {
	const days, more = 60, 12
	c := genCampaign(31, days+more)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Open(dir, WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < days; i++ {
		if err := w.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i < 45 && i%15 == 14 {
			if _, err := w.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := w.Stats(); s.Segments != 3 || s.Writers[0].TailSnapshots != 15 {
		t.Fatalf("%d segments and %d tail snapshots, want 3 and 15", s.Segments, s.Writers[0].TailSnapshots)
	}

	b0 := c.blocks[0]
	prefixes := []dnswire.Prefix{
		{Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], 0, 0}, Bits: 16}, // two of the blocks
		c.blocks[0], c.blocks[1], c.blocks[2],
		b0,
		{Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], b0.Addr[2], 0}, Bits: 26},
		{Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], b0.Addr[2], 16}, Bits: 28},
	}
	rng := splitmix(5)
	windows := func(n, span int) []churnWindow {
		out := make([]churnWindow, n)
		for i := range out {
			a, b := int(rng()%uint64(span)), int(rng()%uint64(span))
			out[i] = churnWindow{p: prefixes[rng()%uint64(len(prefixes))], from: c.times[min(a, b)], to: c.times[max(a, b)]}
		}
		return out
	}
	// check runs the windows on st and returns the reconstructions the
	// churn calls made (the oracle's Range calls make their own).
	check := func(what string, st *Store, ws []churnWindow) uint64 {
		t.Helper()
		var made uint64
		for _, q := range ws {
			want := rangeChurn(t, st, q.p, q.from, q.to)
			before := st.Stats().Reconstructions
			got, err := st.ChurnContext(context.Background(), q.p, q.from, q.to)
			made += st.Stats().Reconstructions - before
			if err != nil {
				t.Fatalf("%s: Churn(%s): %v", what, q.p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Churn(%s, %s..%s):\n got  %v\n want %v", what, q.p, q.from.Format(time.DateOnly), q.to.Format(time.DateOnly), got, want)
			}
		}
		return made
	}
	ws := windows(60, days)

	// First touch, one window a handle, then every window on one handle
	// (cells the earlier windows filled, and cells no window has), then
	// all of them again, served from the table alone.
	for i, q := range ws[:12] {
		ro, err := Open(dir, WithReadOnly())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("first touch %d", i), ro, []churnWindow{q})
		// A window of a /24 or wider fills cells; a narrower one walks.
		if filled, want := ro.churnCells.bytes() > 0, q.p.Bits <= 24 && q.to.After(c.times[0]); filled != want {
			t.Fatalf("first touch %d of %s: the table filled %v, want %v", i, q.p, filled, want)
		}
		ro.Close()
	}
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	check("filling", ro, ws)
	wide := ws[:0:0]
	for _, q := range ws {
		if q.p.Bits <= 24 {
			wide = append(wide, q)
		}
	}
	if n := check("from the table", ro, wide); n != 0 {
		t.Fatalf("churn served from the table reconstructed %d times", n)
	}
	if ro.churnCells.bytes() == 0 {
		t.Fatal("the table holds no cells")
	}
	check("sub-/24 after the table filled", ro, ws)

	// The writer fills cells, then appends past them and compacts them
	// into a segment: they stay right, and the new days fill in.
	check("writer", w, ws)
	for i := days; i < days+more; i++ {
		if err := w.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	check("writer after an append", w, append(ws, windows(30, days+more)...))
	if _, err := w.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	check("writer after a compaction", w, append(ws, windows(30, days+more)...))

	// Eight callers over the same windows on a handle with an empty table.
	ws = windows(40, days+more)
	want := make([][]ChurnDay, len(ws))
	for i, q := range ws {
		want[i] = rangeChurn(t, w, q.p, q.from, q.to)
	}
	shared, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ws {
				i := (k + 5*g) % len(ws)
				got, err := shared.ChurnContext(context.Background(), ws[i].p, ws[i].from, ws[i].to)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("caller %d: churn of window %d = %v, %v; want %v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
