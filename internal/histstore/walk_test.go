package histstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// genWalkCampaign builds seeded histories in raw form, one per writer,
// with the shapes the block walk has to survive: six /24s of one /16 plus
// one of another; block 1 dies on days 9-15 and is reborn; block 2 is
// first seen on day 13 (mid-segment under every compaction cadence used
// here); block 3 changes only on every fifth day, so its rebases land on
// quiet days while the busy blocks' land on change days; block 4 never
// changes after day 0. The writers share one random stream, so the first
// writer's history is the same whatever their number.
func genWalkCampaign(seed uint64, writers, days int) []*campaign {
	rng := splitmix(seed)
	var blocks []dnswire.Prefix
	for i := 0; i < 6; i++ {
		blocks = append(blocks, dnswire.Prefix{Addr: dnswire.IPv4{10, byte(seed % 200), byte(i + 1), 0}, Bits: 24})
	}
	blocks = append(blocks, dnswire.Prefix{Addr: dnswire.IPv4{172, 16, byte(seed % 200), 0}, Bits: 24})
	start := time.Date(2020, 3, 1, 6, 0, 0, 0, time.UTC)
	out := make([]*campaign, writers)
	for w := range out {
		c := &campaign{blocks: blocks}
		cur := scanengine.RecordSet{}
		for day := 0; day < days; day++ {
			for bi, b := range blocks {
				muts := int(rng() % 6)
				switch {
				case bi == 2 && day < 13, bi == 4 && day > 0, bi == 3 && day%5 != 0:
					muts = 0
				}
				for m := 0; m < muts; m++ {
					ip := dnswire.IPv4{b.Addr[0], b.Addr[1], b.Addr[2], byte(rng() % 96 * 2)}
					switch rng() % 4 {
					case 0, 1: // the name pool is small, so names recur across addresses
						cur[ip] = dnswire.MustName(fmt.Sprintf("host-%d.dyn.example.net", rng()%7))
					case 2:
						cur[ip] = dnswire.MustName(fmt.Sprintf("brians-iphone.v%d.example.net", w))
					case 3:
						delete(cur, ip)
					}
				}
			}
			if day == 0 {
				b := blocks[4]
				cur[dnswire.IPv4{b.Addr[0], b.Addr[1], b.Addr[2], 7}] = dnswire.MustName("printer.example.net")
			}
			snap := make(scanengine.RecordSet, len(cur))
			for ip, name := range cur {
				if p := ip.Slash24(); p == blocks[1] && day >= 9 && day <= 15 {
					continue
				}
				snap[ip] = name
			}
			c.times = append(c.times, start.AddDate(0, 0, day).Add(time.Duration(w)*time.Hour))
			c.snaps = append(c.snaps, snap)
		}
		out[w] = c
	}
	return out
}

// walkLayout is how a campaign is laid out on disk and read back.
type walkLayout struct {
	name         string
	compactEvery int // seal the tail every n days; 0 never
	compactOnce  int // one compaction after this day (mid-window); 0 none
	cache        int
	hot          int // WithHotSegments; 0 keeps the default
}

func (l walkLayout) readOpts(extra ...Option) []Option {
	opts := append([]Option{WithCache(l.cache)}, extra...)
	if l.hot > 0 {
		opts = append(opts, WithHotSegments(l.hot))
	}
	return opts
}

// build appends the campaign into dir under the layout and returns the
// (still open) writing handle.
func build(t *testing.T, c *campaign, dir string, l walkLayout) *Store {
	t.Helper()
	st, err := Open(dir, l.readOpts(WithBaseInterval(3))...)
	if err != nil {
		t.Fatal(err)
	}
	for day := range c.times {
		if err := st.Append(c.times[day], c.snaps[day]); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if (l.compactEvery > 0 && day%l.compactEvery == l.compactEvery-1) || (l.compactOnce > 0 && day == l.compactOnce) {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1, BaseInterval: 5}); err != nil {
				t.Fatalf("compacting at day %d: %v", day, err)
			}
		}
	}
	return st
}

func rowStrings(rows []dataset.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s %s %s", r.Date.Format(time.RFC3339), r.IP, r.PTR)
	}
	return out
}

// verifyWalk checks At, Range and Churn of one surface — and, on a Store,
// every RangePage pagination — against the oracle, for a /16, /24s and
// sub-/24 prefixes over windows that start and end inside segments, on
// segment boundaries, in the tail, and off the snapshot grid.
func verifyWalk(t *testing.T, what string, q *Store, o *campaign, rng func() uint64) {
	t.Helper()
	n := len(o.times)
	b0 := o.blocks[0]
	prefixes := []dnswire.Prefix{
		{Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], 0, 0}, Bits: 16},
		o.blocks[1], o.blocks[2], o.blocks[3], o.blocks[6],
		{Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], b0.Addr[2], 64}, Bits: 26},
		{Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], 2, 128}, Bits: 25},
		dnswire.MustPrefix("192.0.2.0/24"), // never seen
	}
	windows := [][2]time.Time{
		{o.times[0], o.times[n-1]},
		{o.times[0].Add(-48 * time.Hour), o.times[n/4]},
		{o.times[n/3].Add(time.Minute), o.times[2*n/3].Add(time.Minute)},
		{o.times[n-n/5], o.times[n-1].Add(72 * time.Hour)},
		{o.times[n/2], o.times[n/2]},
	}
	for i := 0; i < 3; i++ {
		lo := int(rng() % uint64(n))
		hi := lo + int(rng()%uint64(n-lo))
		windows = append(windows, [2]time.Time{o.times[lo], o.times[hi]})
	}

	if _, _, err := q.At(b0.Addr, o.times[0].Add(-time.Second)); err != ErrBeforeHistory {
		t.Fatalf("%s: At before history: %v", what, err)
	}
	for i := 0; i < 400; i++ {
		b := o.blocks[rng()%uint64(len(o.blocks))]
		ip := dnswire.IPv4{b.Addr[0], b.Addr[1], b.Addr[2], byte(rng() % 200)}
		when := o.times[rng()%uint64(n)].Add(time.Duration(rng()%30) * time.Minute)
		wantName, wantOK, _ := o.bruteAt(ip, when)
		gotName, gotOK, err := q.At(ip, when)
		if err != nil || gotOK != wantOK || gotName != wantName {
			t.Fatalf("%s: At(%s, %s) = (%q, %v, %v), oracle (%q, %v)", what, ip, when, gotName, gotOK, err, wantName, wantOK)
		}
	}

	for _, p := range prefixes {
		for wi, w := range windows {
			label := fmt.Sprintf("%s: %s window %d", what, p, wi)
			rows, err := q.Range(p, w[0], w[1])
			if err != nil {
				t.Fatalf("%s: Range: %v", label, err)
			}
			want := o.bruteRange(p, w[0], w[1])
			if got := rowStrings(rows); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("%s: Range returned %d rows, oracle %d\n got  %v\n want %v", label, len(got), len(want), got, want)
			}
			churn, err := q.ChurnContext(context.Background(), p, w[0], w[1])
			if err != nil {
				t.Fatalf("%s: Churn: %v", label, err)
			}
			wantChurn := o.bruteChurn(p, w[0], w[1])
			if len(churn) != len(wantChurn) {
				t.Fatalf("%s: Churn returned %d days, oracle %d", label, len(churn), len(wantChurn))
			}
			for i := range churn {
				if !churn[i].Date.Equal(wantChurn[i].Date) || churn[i].Added != wantChurn[i].Added ||
					churn[i].Removed != wantChurn[i].Removed || churn[i].Changed != wantChurn[i].Changed {
					t.Fatalf("%s: Churn day %d = %+v, oracle %+v", label, i, churn[i], wantChurn[i])
				}
			}
			for _, limit := range []int{1, 7, 1000} {
				if limit == 1 && len(want) > 300 {
					continue // one row a page over the whole /16 proves nothing the /24s do not
				}
				var got []string
				var cur RangeCursor
				for pages := 0; ; pages++ {
					page, next, more, err := q.RangePage(context.Background(), p, w[0], w[1], cur, limit)
					if err != nil {
						t.Fatalf("%s: RangePage(limit %d) page %d: %v", label, limit, pages, err)
					}
					if len(page) > limit || (more && len(page) != limit) {
						t.Fatalf("%s: RangePage(limit %d) page %d holds %d rows, more=%v", label, limit, pages, len(page), more)
					}
					got = append(got, rowStrings(page)...)
					if !more {
						break
					}
					cur = next
				}
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("%s: pages of %d concatenate to %d rows, oracle %d", label, limit, len(got), len(want))
				}
			}
		}
	}
}

// verifyBlockAt checks BlockAt against a brute-force replay of the raw
// snapshots.
func verifyBlockAt(t *testing.T, what string, st *Store, o *campaign, rng func() uint64) {
	t.Helper()
	n := len(o.times)
	for i := 0; i < 40; i++ {
		p := o.blocks[rng()%uint64(len(o.blocks))]
		when := o.times[rng()%uint64(n)].Add(time.Duration(rng()%30) * time.Minute)
		got, err := st.BlockAt(p, when)
		if err != nil {
			t.Fatalf("%s: BlockAt(%s, %s): %v", what, p, when, err)
		}
		for oct := 0; oct < 256; oct++ {
			ip := dnswire.IPv4{p.Addr[0], p.Addr[1], p.Addr[2], byte(oct)}
			wantName, wantOK, _ := o.bruteAt(ip, when)
			if name, ok := got[byte(oct)]; ok != wantOK || name != wantName {
				t.Fatalf("%s: BlockAt(%s, %s)[%d] = (%q, %v), oracle (%q, %v)", what, p, when, oct, name, ok, wantName, wantOK)
			}
		}
	}
}

// TestWalkDifferential is the block walk's acceptance test: seeded raw
// histories of one to three writers, each in a store of its own as a
// campaign's vantages keep them, laid out with and without compaction,
// with no cache, a one-entry cache and a large one, and under a
// one-segment hot tier, must answer At, Range, every RangePage
// pagination, Churn and BlockAt exactly as a brute-force diff of the raw
// snapshots does — on the handle that wrote them, on a reader opened
// beside it, and again after everything is closed and reopened.
func TestWalkDifferential(t *testing.T) {
	layouts := []walkLayout{
		{name: "tail-only/cache=0"},
		{name: "tail-only/cache=4096", cache: 4096},
		{name: "compact-every-4/cache=1", compactEvery: 4, cache: 1},
		{name: "compact-every-4/cache=4096/hot=1", compactEvery: 4, cache: 4096, hot: 1},
		{name: "compact-every-11/cache=0/hot=1", compactEvery: 11, hot: 1},
		{name: "compact-mid-window/cache=1", compactOnce: 19, cache: 1},
		{name: "compact-mid-window/cache=4096", compactOnce: 19, cache: 4096},
	}
	const days = 36
	for seed := uint64(1); seed <= 3; seed++ {
		for _, l := range layouts {
			writers := 1 + int((seed+uint64(len(l.name)))%3)
			seed, l := seed, l
			t.Run(fmt.Sprintf("seed=%d/writers=%d/%s", seed, writers, l.name), func(t *testing.T) {
				t.Parallel()
				for w, c := range genWalkCampaign(seed, writers, days) {
					dir := filepath.Join(t.TempDir(), fmt.Sprintf("store-%d", w))
					st := build(t, c, dir, l)
					// The appending handle itself: states and indexes as
					// Append and the compaction splice left them in memory.
					verifyWalk(t, "live", st, c, splitmix(seed))
					reader, err := Open(dir, l.readOpts(WithReadOnly())...)
					if err != nil {
						t.Fatal(err)
					}
					verifyWalk(t, "reader", reader, c, splitmix(seed+100))
					verifyBlockAt(t, "reader", reader, c, splitmix(seed+200))
					reader.Close()
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					reopened, err := Open(dir, l.readOpts()...)
					if err != nil {
						t.Fatal(err)
					}
					verifyWalk(t, "reopened", reopened, c, splitmix(seed+300))
					reopened.Close()
				}
			})
		}
	}
}

// TestSharedSegmentPins drives concurrent walkers through one segment
// under a one-segment hot tier: every goroutine's window crosses segment 2
// and one neighbour, so readers share a pinned segment while cold loads of
// the neighbours keep trying to evict it. Answers must match the
// single-threaded ones, nothing may race (run under -race), and once the
// readers are gone the tier must be back inside its budget.
func TestSharedSegmentPins(t *testing.T) {
	c := genCampaign(41, 30)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	if st, err = Open(dir, WithReadOnly(), WithHotSegments(1)); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Segment 2 holds days 10-14; each window takes it plus days of
	// segment 1 or segment 3.
	type window struct{ from, to time.Time }
	windows := []window{{c.times[7], c.times[13]}, {c.times[11], c.times[18]}, {c.times[9], c.times[15]}, {c.times[10], c.times[14]}}
	p := dnswire.MustPrefix("10.41.0.0/16")
	wantChurn := make([][]ChurnDay, len(windows))
	wantRows := make([][]string, len(windows))
	for i, w := range windows {
		wantChurn[i] = c.bruteChurn(p, w.from, w.to)
		wantRows[i] = c.bruteRange(p, w.from, w.to)
	}

	const walkers = 8
	errs := make(chan error, walkers)
	for g := 0; g < walkers; g++ {
		go func(g int) {
			for n := 0; n < 40; n++ {
				i := (g + n) % len(windows)
				churn, err := st.ChurnContext(context.Background(), p, windows[i].from, windows[i].to)
				if err != nil || !reflect.DeepEqual(churn, wantChurn[i]) {
					errs <- fmt.Errorf("walker %d: churn of window %d = %v, %v", g, i, churn, err)
					return
				}
				rows, err := st.Range(p, windows[i].from, windows[i].to)
				if err != nil || !reflect.DeepEqual(rowStrings(rows), wantRows[i]) {
					errs <- fmt.Errorf("walker %d: range of window %d: %d rows, %v", g, i, len(rows), err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < walkers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stats := st.Stats()
	if stats.HotSegments > 1 {
		t.Fatalf("%d segments hot after the readers left, budget 1", stats.HotSegments)
	}
	if stats.TierLoads == 0 || stats.TierEvictions == 0 {
		t.Fatalf("the tier never churned: %+v", stats)
	}
}

// TestEvictionsCloseFilesMidWalk runs walkers over a twelve-segment
// history with two segment files allowed open, so the tier closes files
// between one walker's segments while other walkers are mid-query, and
// re-opens them for the next. Every answer must match a handle that keeps
// every file open, nothing may race (run under -race), and no index is
// rebuilt: the tier closes and re-opens files, never an index.
func TestEvictionsCloseFilesMidWalk(t *testing.T) {
	c := genCampaign(47, 60)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	all, err := Open(dir, WithReadOnly(), WithHotSegments(0))
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	two, err := Open(dir, WithReadOnly(), WithHotSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if n := len(two.w.segs); n != 12 {
		t.Fatalf("%d segments, want 12", n)
	}
	if st := two.Stats(); st.HotSegments != 2 || st.TierEvictions != 0 || openSegmentFiles(two) != 2 {
		t.Fatalf("opened with two files allowed: %d hot, %d evictions, %d files open; want 2, 0, 2",
			st.HotSegments, st.TierEvictions, openSegmentFiles(two))
	}
	indexes := make([]*segIndex, len(two.w.segs))
	for i, g := range two.w.segs {
		indexes[i] = g.idx
	}

	// Windows of ten days from every seventh day, and the whole history.
	type query struct {
		p        dnswire.Prefix
		from, to time.Time
		ip       dnswire.IPv4
	}
	p16 := dnswire.Prefix{Addr: dnswire.IPv4{10, 47, 0, 0}, Bits: 16}
	var queries []query
	for from := 0; from < len(c.times); from += 7 {
		ip := dnswire.IPv4{10, 47, byte(1 + from%2), byte(from % 40)}
		queries = append(queries, query{p16, c.times[from], c.times[min(from+9, len(c.times)-1)], ip})
	}
	queries = append(queries, query{p16, c.times[0], c.times[len(c.times)-1], dnswire.IPv4{10, 47, 1, 3}},
		query{c.blocks[2], c.times[0], c.times[len(c.times)-1], dnswire.IPv4{172, 16, 47, 5}})
	type answer struct {
		churn []ChurnDay
		rows  []string
		name  dnswire.Name
		ok    bool
	}
	ask := func(st *Store, q query) (answer, error) {
		var a answer
		var err error
		if a.churn, err = st.ChurnContext(context.Background(), q.p, q.from, q.to); err != nil {
			return a, err
		}
		rows, err := st.Range(q.p, q.from, q.to)
		if err != nil {
			return a, err
		}
		a.rows = rowStrings(rows)
		a.name, a.ok, err = st.At(q.ip, q.to)
		return a, err
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		if want[i], err = ask(all, q); err != nil {
			t.Fatal(err)
		}
	}

	const walkers = 6
	errs := make(chan error, walkers)
	for g := 0; g < walkers; g++ {
		go func(g int) {
			for n := 0; n < 3*len(queries); n++ {
				i := (5*g + n) % len(queries)
				got, err := ask(two, queries[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = errors.New("the answer differs")
				}
				if err != nil {
					errs <- fmt.Errorf("walker %d, query %d: %v", g, i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < walkers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stats := two.Stats()
	open := openSegmentFiles(two)
	t.Logf("two open files allowed: %d re-opens, %d closes, %d open", stats.TierLoads, stats.TierEvictions, open)
	if stats.HotSegments > 2 || open > 2 || stats.TierLoads == 0 || stats.TierEvictions == 0 {
		t.Fatalf("two open files allowed: %d hot, %d open, %d re-opens, %d closes", stats.HotSegments, open, stats.TierLoads, stats.TierEvictions)
	}
	// Every file counted: the two Open left open and every re-open, less
	// every close, are the files open now.
	if got := 2 + int(stats.TierLoads) - int(stats.TierEvictions); got != open {
		t.Fatalf("2 opened + %d re-opens - %d closes = %d, but %d files are open", stats.TierLoads, stats.TierEvictions, got, open)
	}
	if st := all.Stats(); st.HotSegments != 12 || st.TierLoads != 0 || st.TierEvictions != 0 {
		t.Fatalf("unbounded tier: %d open, %d re-opens, %d closes; want 12, 0, 0", st.HotSegments, st.TierLoads, st.TierEvictions)
	}
	for i, g := range two.w.segs {
		if g.idx != indexes[i] {
			t.Fatalf("segment %d's index was rebuilt", i)
		}
	}
}

// openSegmentFiles counts the sealed segments of st whose file is open.
func openSegmentFiles(st *Store) int {
	n := 0
	for _, g := range st.w.segs {
		g.mu.Lock()
		if g.f != nil {
			n++
		}
		g.mu.Unlock()
	}
	return n
}

// TestOpenKeepsHotSegmentsOpen requires Open of a 6-segment store with a
// tier of two to leave exactly the two newest segments' files open, and
// to count no eviction for the files it closed while verifying the rest:
// a handle that has served nothing has evicted nothing. A replaying open
// (the full-replay oracle) ends the same way, and so does an open that
// must fold every segment's name postings, the closed ones included,
// because their sidecars are gone.
func TestOpenKeepsHotSegmentsOpen(t *testing.T) {
	c := genCampaign(53, 18)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	oracle := openReplayed(t, dir, WithReadOnly())
	defer oracle.Close()
	for _, tc := range []struct {
		replayAll, noSidecars bool
	}{{false, false}, {true, false}, {false, true}} {
		if tc.noSidecars {
			names, err := filepath.Glob(filepath.Join(dir, "*.names"))
			if err != nil || len(names) != 6 {
				t.Fatalf("%d sidecars, %v; want 6", len(names), err)
			}
			for _, n := range names {
				if err := os.Remove(n); err != nil {
					t.Fatal(err)
				}
			}
		}
		two, err := openStore(dir, []Option{WithReadOnly(), WithHotSegments(2)}, tc.replayAll)
		if err != nil {
			t.Fatal(err)
		}
		stats := two.Stats()
		if stats.Segments != 6 || stats.HotSegments != 2 || stats.TierEvictions != 0 || stats.TierLoads != 0 {
			t.Errorf("%+v: %d segments, %d hot, %d evictions, %d loads; want 6, 2, 0, 0",
				tc, stats.Segments, stats.HotSegments, stats.TierEvictions, stats.TierLoads)
		}
		for i, g := range two.w.segs {
			if hot := i >= len(two.w.segs)-2; (g.f != nil) != hot || g.hot != hot {
				t.Errorf("%+v: segment %d: file open %v, hot %v; want %v", tc, i, g.f != nil, g.hot, hot)
			}
		}
		sameIndex(t, fmt.Sprintf("%+v", tc), two.names, oracle.names)
		verifyStore(t, two, c, splitmix(3))
		if err := two.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmChurnAllocationCeiling pins the walk's allocation budget: a
// 30-day churn of one /24 with the seed cached and every segment hot reads
// 30 days of frames through one read buffer, one delta buffer and two
// state buffers, so what it allocates is the decoded names and little
// else.
func TestWarmChurnAllocationCeiling(t *testing.T) {
	c := genCampaign(43, 45)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, WithCache(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, from, to := c.blockOf(0), c.times[8], c.times[37]
	days, err := st.ChurnContext(context.Background(), p, from, to)
	if err != nil || len(days) != 30 {
		t.Fatalf("churn: %d days, %v", len(days), err)
	}
	frames := 0
	for _, d := range days {
		if d.Added+d.Removed+d.Changed > 0 {
			frames++
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.ChurnContext(context.Background(), p, from, to); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations over %d days with changes", allocs, frames)
	if ceiling := float64(12 + 8*frames); allocs > ceiling {
		t.Fatalf("warm 30-day /24 churn allocates %.0f times, ceiling %.0f", allocs, ceiling)
	}
}
