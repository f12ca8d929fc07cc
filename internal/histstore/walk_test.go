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
	"rdnsprivacy/internal/testutil"
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
}

func (l walkLayout) readOpts(extra ...Option) []Option {
	return append([]Option{WithCache(l.cache)}, extra...)
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
// segment boundaries, in the tail, and off the snapshot grid; then every
// snapshot EachSnapshot hands out.
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
	verifyEachSnapshot(t, what, q, o)
}

// verifyEachSnapshot checks EachSnapshot over the whole address space
// and over a /26 against a brute-force replay of the raw snapshots: every
// snapshot, every /24 and every octet, in packed form, and no record
// outside the prefix.
func verifyEachSnapshot(t *testing.T, what string, st *Store, o *campaign) {
	t.Helper()
	b0 := o.blocks[0]
	for _, p := range []dnswire.Prefix{{}, {Addr: dnswire.IPv4{b0.Addr[0], b0.Addr[1], b0.Addr[2], 64}, Bits: 26}} {
		i := 0
		err := st.EachSnapshot(context.Background(), p, o.times[0].Add(-time.Hour), o.times[len(o.times)-1].Add(time.Hour), func(at time.Time, snap scanengine.Blocks) error {
			if i == len(o.times) || !at.Equal(o.times[i]) {
				t.Fatalf("%s: %s: snapshot %d at %s, oracle has %d snapshots", what, p, i, at, len(o.times))
			}
			got := make(scanengine.RecordSet)
			for bi, b := range snap {
				if len(b.Entries) == 0 || (bi > 0 && snap[bi-1].Prefix.Addr.Uint32() >= b.Prefix.Addr.Uint32()) {
					t.Fatalf("%s: %s@%d: block %d (%s, %d entries) is empty or out of order", what, p, i, bi, b.Prefix, len(b.Entries))
				}
				for k, e := range b.Entries {
					if k > 0 && b.Entries[k-1].Octet >= e.Octet {
						t.Fatalf("%s: %s@%d: %s entries out of order", what, p, i, b.Prefix)
					}
					got[dnswire.IPv4{b.Prefix.Addr[0], b.Prefix.Addr[1], b.Prefix.Addr[2], e.Octet}] = e.Name
				}
			}
			want := 0
			for _, q := range o.blocks {
				for oct := 0; oct < 256; oct++ {
					ip := dnswire.IPv4{q.Addr[0], q.Addr[1], q.Addr[2], byte(oct)}
					wantName, wantOK, _ := o.bruteAt(ip, at)
					wantOK = wantOK && p.Contains(ip)
					if !wantOK {
						wantName = ""
					} else {
						want++
					}
					if name, ok := got[ip]; ok != wantOK || name != wantName {
						t.Fatalf("%s: %s@%d: %s = (%q, %v), oracle (%q, %v)", what, p, i, ip, name, ok, wantName, wantOK)
					}
				}
			}
			if len(got) != want {
				t.Fatalf("%s: %s@%d: %d records, oracle %d", what, p, i, len(got), want)
			}
			i++
			return nil
		})
		if err != nil || i != len(o.times) {
			t.Fatalf("%s: %s: EachSnapshot stopped after %d of %d snapshots: %v", what, p, i, len(o.times), err)
		}
	}
}

// TestWalkDifferential is the block walk's acceptance test: seeded raw
// histories of one to three writers, each in a store of its own as a
// campaign's vantages keep them, laid out with and without compaction,
// with no cache, a one-entry cache and a large one, must answer At,
// Range, every RangePage pagination, Churn and EachSnapshot exactly as a
// brute-force diff of the raw snapshots does — on the handle that wrote
// them, on a reader opened beside it, and again after everything is
// closed and reopened.
func TestWalkDifferential(t *testing.T) {
	layouts := []walkLayout{
		{name: "tail-only/cache=0"},
		{name: "tail-only/cache=4096", cache: 4096},
		{name: "compact-every-4/cache=1", compactEvery: 4, cache: 1},
		{name: "compact-every-4/cache=4096", compactEvery: 4, cache: 4096},
		{name: "compact-every-11/cache=0", compactEvery: 11},
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

// TestConcurrentWalkersShareSegments drives concurrent walkers through
// shared segments: every goroutine's window crosses segment 2 and one
// neighbour, so readers walk the same segment files at once. Answers must
// match the single-threaded ones, and nothing may race (run under -race).
func TestConcurrentWalkersShareSegments(t *testing.T) {
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
	if st, err = Open(dir, WithReadOnly()); err != nil {
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
}

// TestOpenOpensEverySegment requires Open of a 6-segment store to leave
// every segment's file open, the same file the handle reads from to its
// Close, whatever WithHotSegments asks. A replaying open (the full-replay
// oracle) ends the same way, and so does an open that must fold every
// segment's name postings because their sidecars are gone.
func TestOpenOpensEverySegment(t *testing.T) {
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
		st, err := openStore(dir, []Option{WithReadOnly(), WithHotSegments(1)}, tc.replayAll)
		if err != nil {
			t.Fatal(err)
		}
		if n := st.Stats().Segments; n != 6 {
			t.Errorf("%+v: %d segments, want 6", tc, n)
		}
		files := make([]*os.File, len(st.w.segs))
		for i, g := range st.w.segs {
			if files[i] = g.f; g.f == nil || g.f.Name() != g.path {
				t.Errorf("%+v: segment %d: file %v, want %s open", tc, i, g.f, g.path)
			}
		}
		sameIndex(t, fmt.Sprintf("%+v", tc), st.names, oracle.names)
		verifyStore(t, st, c, splitmix(3))
		for i, g := range st.w.segs {
			if g.f != files[i] {
				t.Errorf("%+v: segment %d's file changed under queries", tc, i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// openFDs counts the process's open file descriptors, skipping the test
// where the system does not list them.
func openFDs(t *testing.T) int {
	t.Helper()
	n, err := testutil.OpenFDs()
	if err != nil {
		t.Skipf("no descriptor listing: %v", err)
	}
	return n
}

// TestHandleDescriptors guards against a leaked handle, which leaks
// every one of its segment files: a read-only Open of an N-segment store
// holds N descriptors plus its tail's, queries open none, a writer holds
// its tail lock besides and a compaction nets it one (the new segment's
// file; the old tail's closes), and Close gives every one back, after
// which queries answer ErrClosed.
func TestHandleDescriptors(t *testing.T) {
	c := genCampaign(59, 24)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	p := dnswire.MustPrefix("10.59.0.0/16")
	ip := dnswire.IPv4{c.blocks[0].Addr[0], c.blocks[0].Addr[1], c.blocks[0].Addr[2], 7}

	before := openFDs(t)
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	n := len(ro.w.segs)
	if n != 5 {
		t.Fatalf("%d segments, want 5", n)
	}
	if got := openFDs(t) - before; got != n+1 {
		t.Fatalf("a read-only handle on %d segments holds %d descriptors, want %d", n, got, n+1)
	}
	if _, err := ro.Range(p, c.times[0], c.times[19]); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.ChurnContext(context.Background(), p, c.times[0], c.times[19]); err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t) - before; got != n+1 {
		t.Fatalf("after queries the handle holds %d descriptors, want %d", got, n+1)
	}

	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t) - before; got != 2*(n+1)+1 {
		t.Fatalf("beside the reader a writer holds %d descriptors, want %d", got-(n+1), n+2)
	}
	for i := 20; i < 24; i++ {
		if err := w.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t) - before; got != 2*(n+1)+2 {
		t.Fatalf("after a compaction the writer holds %d descriptors, want %d", got-(n+1), n+3)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t); got != before {
		t.Fatalf("%d descriptors open after Close, %d before Open", got, before)
	}
	if _, _, err := ro.At(ip, c.times[10]); !errors.Is(err, ErrClosed) {
		t.Fatalf("At after Close: %v, want ErrClosed", err)
	}
	if err := ro.EachSnapshot(context.Background(), p, c.times[0], c.times[19], func(time.Time, scanengine.Blocks) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("EachSnapshot after Close: %v, want ErrClosed", err)
	}
	if _, err := ro.Range(p, c.times[0], c.times[19]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Range after Close: %v, want ErrClosed", err)
	}
	if _, err := ro.ChurnContext(context.Background(), p, c.times[0], c.times[19]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Churn after Close: %v, want ErrClosed", err)
	}
}

// TestWarmChurnAllocationCeiling pins the walk's allocation budget: a
// 30-day churn of one /24 with the seed cached and every segment open reads
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
