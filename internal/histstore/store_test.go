package histstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// splitmix is the repo's standard deterministic test RNG.
func splitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// campaign is a seeded synthetic history: raw per-day record sets plus
// their instants, the ground truth every store answer is compared to.
type campaign struct {
	times  []time.Time
	snaps  []scanengine.RecordSet
	blocks []dnswire.Prefix
}

// genCampaign builds days snapshots over a handful of /24s with seeded
// random churn: adds, removes, and renames, including tracked-device
// names ("brians-iphone") that move between blocks.
func genCampaign(seed uint64, days int) *campaign {
	rng := splitmix(seed)
	blocks := []dnswire.Prefix{
		dnswire.MustPrefix(fmt.Sprintf("10.%d.1.0/24", seed%100)),
		dnswire.MustPrefix(fmt.Sprintf("10.%d.2.0/24", seed%100)),
		dnswire.MustPrefix(fmt.Sprintf("172.16.%d.0/24", seed%200)),
	}
	devices := []string{"brians-iphone", "brians-ipad", "alices-laptop", "printer"}
	cur := scanengine.RecordSet{}
	start := time.Date(2020, 3, 1, 6, 0, 0, 0, time.UTC)
	c := &campaign{blocks: blocks}
	for day := 0; day < days; day++ {
		// Mutate 0-7 addresses.
		for i := uint64(0); i < rng()%8; i++ {
			b := blocks[rng()%uint64(len(blocks))]
			ip := dnswire.IPv4{b.Addr[0], b.Addr[1], b.Addr[2], byte(rng() % 40)}
			switch rng() % 3 {
			case 0: // add or rename to a dynamic-pool name
				cur[ip] = dnswire.MustName(fmt.Sprintf("host-%d-%d.dyn.example.net", ip.Uint32(), rng()%5))
			case 1: // a tracked device (re)appears here
				cur[ip] = dnswire.MustName(devices[rng()%uint64(len(devices))] + ".lan.example.net")
			case 2:
				delete(cur, ip)
			}
		}
		snap := make(scanengine.RecordSet, len(cur))
		for ip, name := range cur {
			snap[ip] = name
		}
		c.times = append(c.times, start.AddDate(0, 0, day))
		c.snaps = append(c.snaps, snap)
	}
	return c
}

// append loads the whole campaign into st.
func (c *campaign) append(t *testing.T, st *Store) {
	t.Helper()
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatalf("Append day %d: %v", i, err)
		}
	}
}

// Brute-force oracles over the raw snapshots.

func (c *campaign) snapAtOrBefore(t time.Time) (int, bool) {
	n := sort.Search(len(c.times), func(i int) bool { return c.times[i].After(t) })
	if n == 0 {
		return 0, false
	}
	return n - 1, true
}

func (c *campaign) bruteAt(ip dnswire.IPv4, t time.Time) (dnswire.Name, bool, bool) {
	i, ok := c.snapAtOrBefore(t)
	if !ok {
		return "", false, false
	}
	name, ok := c.snaps[i][ip]
	return name, ok, true
}

func (c *campaign) bruteRange(p dnswire.Prefix, from, to time.Time) []string {
	var out []string
	for i := range c.snaps {
		if c.times[i].Before(from) || c.times[i].After(to) {
			continue
		}
		var ips []dnswire.IPv4
		for ip := range c.snaps[i] {
			if p.Contains(ip) {
				ips = append(ips, ip)
			}
		}
		sort.Slice(ips, func(a, b int) bool { return ips[a].Uint32() < ips[b].Uint32() })
		for _, ip := range ips {
			out = append(out, fmt.Sprintf("%s %s %s", c.times[i].Format(time.RFC3339), ip, c.snaps[i][ip]))
		}
	}
	return out
}

func (c *campaign) bruteChurn(p dnswire.Prefix, from, to time.Time) []ChurnDay {
	var out []ChurnDay
	for i := 1; i < len(c.snaps); i++ {
		if c.times[i].Before(from) || c.times[i].After(to) {
			continue
		}
		day := ChurnDay{Date: c.times[i]}
		for ip, old := range c.snaps[i-1] {
			if !p.Contains(ip) {
				continue
			}
			if now, ok := c.snaps[i][ip]; !ok {
				day.Removed++
			} else if now != old {
				day.Changed++
			}
		}
		for ip := range c.snaps[i] {
			if !p.Contains(ip) {
				continue
			}
			if _, ok := c.snaps[i-1][ip]; !ok {
				day.Added++
			}
		}
		out = append(out, day)
	}
	return out
}

// bruteFind reimplements FindName over the raw snapshots: per /24, the
// maximal runs of consecutive snapshots where any record carries the
// token.
func (c *campaign) bruteFind(token string) []Posting {
	present := map[dnswire.Prefix][]bool{}
	for i, snap := range c.snaps {
		for ip, name := range snap {
			for _, tok := range appendTokens(nil, name) {
				if tok != token {
					continue
				}
				p := ip.Slash24()
				if present[p] == nil {
					present[p] = make([]bool, len(c.snaps))
				}
				present[p][i] = true
			}
		}
	}
	prefixes := make([]dnswire.Prefix, 0, len(present))
	for p := range present {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Addr.Uint32() < prefixes[j].Addr.Uint32() })
	var out []Posting
	for _, p := range prefixes {
		days := present[p]
		for i := 0; i < len(days); i++ {
			if !days[i] {
				continue
			}
			j := i
			for j+1 < len(days) && days[j+1] {
				j++
			}
			out = append(out, Posting{Prefix: p, First: c.times[i], Last: c.times[j]})
			i = j
		}
	}
	return out
}

// verifyStore checks every store answer against the brute-force oracles.
func verifyStore(t *testing.T, st *Store, c *campaign, rng func() uint64) {
	t.Helper()
	queryPrefixes := []dnswire.Prefix{
		dnswire.MustPrefix("0.0.0.0/0"),
		dnswire.MustPrefix("10.0.0.0/8"),
		c.blockOf(0), c.blockOf(2),
		// Narrower than a /24: exercises the filter path.
		{Addr: c.blockOf(1).Addr, Bits: 27},
	}

	// At: sampled (ip, instant) pairs, including off-grid instants that
	// must resolve to the preceding snapshot, plus pre-history.
	if _, _, err := st.At(c.blockOf(0).Addr, c.times[0].Add(-time.Hour)); !errors.Is(err, ErrBeforeHistory) {
		t.Fatalf("At before history: err=%v, want ErrBeforeHistory", err)
	}
	for i := 0; i < 300; i++ {
		b := c.blockOf(int(rng() % 3))
		ip := dnswire.IPv4{b.Addr[0], b.Addr[1], b.Addr[2], byte(rng() % 48)}
		when := c.times[rng()%uint64(len(c.times))].Add(time.Duration(rng()%20) * time.Hour)
		wantName, wantOK, inHistory := c.bruteAt(ip, when)
		gotName, gotOK, err := st.At(ip, when)
		if !inHistory {
			if !errors.Is(err, ErrBeforeHistory) {
				t.Fatalf("At(%s, %s): err=%v, want ErrBeforeHistory", ip, when, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("At(%s, %s): %v", ip, when, err)
		}
		if gotOK != wantOK || gotName != wantName {
			t.Fatalf("At(%s, %s) = (%q, %v), oracle (%q, %v)", ip, when, gotName, gotOK, wantName, wantOK)
		}
	}

	// Range over several windows and prefixes.
	windows := [][2]time.Time{
		{c.times[0], c.times[len(c.times)-1]},
		{c.times[len(c.times)/3], c.times[2*len(c.times)/3]},
		{c.times[5].Add(time.Minute), c.times[9]},
	}
	for _, p := range queryPrefixes {
		for _, w := range windows {
			rows, err := st.Range(p, w[0], w[1])
			if err != nil {
				t.Fatalf("Range(%s): %v", p, err)
			}
			got := make([]string, len(rows))
			for i, r := range rows {
				got[i] = fmt.Sprintf("%s %s %s", r.Date.Format(time.RFC3339), r.IP, r.PTR)
			}
			want := c.bruteRange(p, w[0], w[1])
			if len(got) != len(want) {
				t.Fatalf("Range(%s, %s..%s): %d rows, oracle %d", p, w[0].Format("2006-01-02"), w[1].Format("2006-01-02"), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Range(%s) row %d:\n got  %s\n want %s", p, i, got[i], want[i])
				}
			}
		}
	}

	// Churn over the same windows.
	for _, p := range queryPrefixes {
		for _, w := range windows {
			got, err := st.ChurnContext(context.Background(), p, w[0], w[1])
			if err != nil {
				t.Fatalf("Churn(%s): %v", p, err)
			}
			want := c.bruteChurn(p, w[0], w[1])
			if len(got) != len(want) {
				t.Fatalf("Churn(%s): %d days, oracle %d", p, len(got), len(want))
			}
			for i := range got {
				if !got[i].Date.Equal(want[i].Date) || got[i].Added != want[i].Added ||
					got[i].Removed != want[i].Removed || got[i].Changed != want[i].Changed {
					t.Fatalf("Churn(%s) day %d: %+v, oracle %+v", p, i, got[i], want[i])
				}
			}
		}
	}

	// FindName for every token the campaign can produce, plus the stem.
	for _, token := range []string{"brians", "brian", "alices", "alice", "printer", "host", "nosuchtoken"} {
		got := st.FindName(token)
		want := c.bruteFind(token)
		if len(got) != len(want) {
			t.Fatalf("FindName(%q): %d postings, oracle %d\n got  %+v\n want %+v", token, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].Prefix != want[i].Prefix || !got[i].First.Equal(want[i].First) || !got[i].Last.Equal(want[i].Last) {
				t.Fatalf("FindName(%q) posting %d: %+v, oracle %+v", token, i, got[i], want[i])
			}
		}
	}
}

// blockOf returns the campaign's i-th /24.
func (c *campaign) blockOf(i int) dnswire.Prefix { return c.blocks[i] }

// TestStoreProperty is the acceptance test of the subsystem: a seeded
// 50-day campaign appended to the store answers At, Range, Churn, and
// FindName bit-identically to brute-force replay of the raw snapshots —
// before AND after a close/reopen cycle, with and without the cache, and
// across base intervals that force both delta-heavy and base-heavy logs.
func TestStoreProperty(t *testing.T) {
	for _, tc := range []struct {
		seed      uint64
		baseEvery int
		cache     int
	}{
		{seed: 1, baseEvery: 7, cache: 256},
		{seed: 2, baseEvery: 1, cache: 0},   // every block write is a base
		{seed: 3, baseEvery: 100, cache: 8}, // one base, long delta chains, tiny cache
		{seed: 4, baseEvery: 3, cache: 256},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/K=%d/cache=%d", tc.seed, tc.baseEvery, tc.cache), func(t *testing.T) {
			c := genCampaign(tc.seed, 50)
			path := filepath.Join(t.TempDir(), "hist.log")
			st, err := Open(path, WithBaseInterval(tc.baseEvery), WithCache(tc.cache))
			if err != nil {
				t.Fatal(err)
			}
			c.append(t, st)
			verifyStore(t, st, c, splitmix(tc.seed*7919))
			stats := st.Stats()
			if stats.Snapshots != 50 {
				t.Fatalf("Stats.Snapshots = %d, want 50", stats.Snapshots)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: the replayed store must answer identically.
			st2, err := Open(path, WithCache(tc.cache))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			if st2.BaseInterval() != tc.baseEvery {
				t.Fatalf("reopen lost base interval: %d, want %d", st2.BaseInterval(), tc.baseEvery)
			}
			verifyStore(t, st2, c, splitmix(tc.seed*104729))
			s2 := st2.Stats()
			if s2.Snapshots != stats.Snapshots || s2.Blocks != stats.Blocks ||
				s2.BaseFrames != stats.BaseFrames || s2.DeltaFrames != stats.DeltaFrames ||
				s2.Bytes != stats.Bytes {
				t.Fatalf("reopen stats drifted: %+v vs %+v", s2, stats)
			}
		})
	}
}

// TestStoreAppendAfterReopen verifies the writer can continue a replayed
// log: append 30 days, reopen, append 20 more, and the full 50-day
// history still matches the oracle.
func TestStoreAppendAfterReopen(t *testing.T) {
	c := genCampaign(11, 50)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path, WithBaseInterval(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(path, WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 30; i < 50; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	verifyStore(t, st, c, splitmix(4242))
}

// TestStoreTornTail simulates a crash mid-append: garbage or a partial
// frame at the end of the log is truncated away on open, and everything
// before it still answers correctly.
func TestStoreTornTail(t *testing.T) {
	c := genCampaign(5, 20)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c.append(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tail := tailPath(t, path)
	fi, _ := os.Stat(tail)
	goodSize := fi.Size()

	// A torn frame: a valid kind byte, a length promising more than is
	// there, and a few body bytes.
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameBase, 0x80, 0x02, 'x', 'y', 'z'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = Open(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer st.Close()
	if st.Len() != 20 {
		t.Fatalf("Len = %d after torn-tail recovery, want 20", st.Len())
	}
	fi, _ = os.Stat(tail)
	if fi.Size() != goodSize {
		t.Fatalf("tail is %d bytes after recovery, want %d", fi.Size(), goodSize)
	}
	verifyStore(t, st, c, splitmix(99))

	// And the recovered store accepts new appends.
	extra := scanengine.RecordSet{c.blocks[0].Addr: dnswire.MustName("post-crash.example.net")}
	if err := st.Append(c.times[19].Add(24*time.Hour), extra); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestStoreMidFileCorruption: damage inside the log (not a torn tail) is
// not silently dropped — Open fails loudly.
func TestStoreMidFileCorruption(t *testing.T) {
	c := genCampaign(6, 10)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c.append(t, st)
	st.Close()

	tail := tailPath(t, path)
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("opened a mid-file-corrupted log without error")
	}
}

// tailPath finds a store's single tail file for tests that poke bytes.
func tailPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "tail-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one tail file in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

func TestStoreBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(path, []byte("date,ip,ptr\n2020-01-01,1.2.3.4,x.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "not a store directory") {
		t.Fatalf("open of a CSV file: %v, want a not-a-store-directory refusal", err)
	}
}

func TestStoreOrderingAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(day, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(day, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("same-instant append: %v, want ErrOutOfOrder", err)
	}
	if err := st.Append(day.Add(-time.Hour), nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("backdated append: %v, want ErrOutOfOrder", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(day.Add(time.Hour), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if _, _, err := st.At(dnswire.MustIPv4("1.2.3.4"), day); !errors.Is(err, ErrClosed) {
		t.Fatalf("At after close: %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStoreCacheCounters(t *testing.T) {
	c := genCampaign(8, 15)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path, WithCache(128))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.append(t, st)

	ip := dnswire.IPv4{c.blocks[0].Addr[0], c.blocks[0].Addr[1], c.blocks[0].Addr[2], 7}
	if _, _, err := st.At(ip, c.times[10]); err != nil {
		t.Fatal(err)
	}
	cold := st.Stats()
	for i := 0; i < 5; i++ {
		if _, _, err := st.At(ip, c.times[10]); err != nil {
			t.Fatal(err)
		}
	}
	warm := st.Stats()
	if warm.CacheHits != cold.CacheHits+5 {
		t.Fatalf("CacheHits %d -> %d, want +5", cold.CacheHits, warm.CacheHits)
	}
	if warm.Reconstructions != cold.Reconstructions {
		t.Fatalf("cached queries reconstructed: %d -> %d", cold.Reconstructions, warm.Reconstructions)
	}
	if warm.CacheEntries == 0 {
		t.Fatal("CacheEntries = 0 with a warm cache")
	}
}

func TestStoreResolveAndTimes(t *testing.T) {
	c := genCampaign(9, 5)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, ok := st.Span(); ok {
		t.Fatal("Span of an empty store reported a timeline")
	}
	c.append(t, st)

	if first, last, ok := st.Span(); !ok || !first.Equal(c.times[0]) || !last.Equal(c.times[4]) {
		t.Fatalf("Span = (%s, %s, %v), want (%s, %s, true)", first, last, ok, c.times[0], c.times[4])
	}
	times := st.Times()
	if len(times) != 5 {
		t.Fatalf("Times: %d, want 5", len(times))
	}
	for i, ti := range times {
		if !ti.Equal(c.times[i]) {
			t.Fatalf("Times[%d] = %s, want %s", i, ti, c.times[i])
		}
	}
	if _, ok := st.Resolve(c.times[0].Add(-time.Second)); ok {
		t.Fatal("Resolve before history succeeded")
	}
	got, ok := st.Resolve(c.times[2].Add(7 * time.Hour))
	if !ok || !got.Equal(c.times[2]) {
		t.Fatalf("Resolve mid-gap = (%s, %v), want %s", got, ok, c.times[2])
	}
}

// TestRangePageConcatenation: for seeded campaigns and a spread of page
// sizes, concatenating RangePage pages must reproduce the unpaginated
// Range answer exactly — the pagination contract cmd/rdnsd's /v1/range
// serves. Page sizes that divide the row count evenly exercise the
// "full page then empty final page" shape.
func TestRangePageConcatenation(t *testing.T) {
	for _, seed := range []uint64{3, 17, 51} {
		c := genCampaign(seed, 25)
		path := filepath.Join(t.TempDir(), "hist.log")
		st, err := Open(path, WithCache(128))
		if err != nil {
			t.Fatal(err)
		}
		c.append(t, st)
		prefixes := []dnswire.Prefix{
			dnswire.MustPrefix("0.0.0.0/0"),
			c.blockOf(0),
			{Addr: c.blockOf(1).Addr, Bits: 27},
		}
		windows := [][2]time.Time{
			{c.times[0], c.times[len(c.times)-1]},
			{c.times[4], c.times[11]},
		}
		ctx := context.Background()
		for _, p := range prefixes {
			for _, w := range windows {
				want, err := st.Range(p, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{1, 3, 7, 100000} {
					var got []dataset.Row
					var cur RangeCursor
					pages := 0
					for {
						rows, next, more, err := st.RangePage(ctx, p, w[0], w[1], cur, limit)
						if err != nil {
							t.Fatalf("seed %d RangePage(%s, limit %d): %v", seed, p, limit, err)
						}
						got = append(got, rows...)
						pages++
						if !more {
							break
						}
						cur = next
						if pages > len(want)+2 {
							t.Fatalf("seed %d: pagination did not terminate (%d pages for %d rows)", seed, pages, len(want))
						}
					}
					if len(got) != len(want) {
						t.Fatalf("seed %d %s limit %d: %d paginated rows, %d unpaginated", seed, p, limit, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s limit %d row %d: %+v != %+v", seed, p, limit, i, got[i], want[i])
						}
					}
				}
			}
		}
		st.Close()
	}
}

// TestRangePageStableAcrossAppends: a cursor taken mid-pagination keeps
// producing the fixed window's rows even while the store appends more
// days — the live-campaign serving scenario.
func TestRangePageStableAcrossAppends(t *testing.T) {
	c := genCampaign(7, 30)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Load only the first 20 days; the window covers days 0-14.
	for i := 0; i < 20; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	p := dnswire.MustPrefix("0.0.0.0/0")
	from, to := c.times[0], c.times[14]
	want, err := st.Range(p, from, to)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var got []dataset.Row
	var cur RangeCursor
	appended := 20
	for {
		rows, next, more, err := st.RangePage(ctx, p, from, to, cur, 5)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
		if !more {
			break
		}
		cur = next
		// Interleave appends between pages.
		if appended < len(c.snaps) {
			if err := st.Append(c.times[appended], c.snaps[appended]); err != nil {
				t.Fatal(err)
			}
			appended++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows across appends, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d diverged: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestEachRowPagesThroughRange: EachRow streams, over more than two pages
// and across sealed segments and the tail, exactly the rows a
// full-history Range returns, in order; an empty store streams none, and
// the callback's error ends the scan.
func TestEachRowPagesThroughRange(t *testing.T) {
	c := genCampaign(29, 120)
	st, err := Open(filepath.Join(t.TempDir(), "hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if err := st.EachRow(ctx, func(dataset.Row) error { return errors.New("a row from an empty store") }); err != nil {
		t.Fatal(err)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i == 59 {
			if _, err := st.Compact(ctx, CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := st.Range(dnswire.Prefix{}, c.times[0], c.times[len(c.times)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 2*eachRowPage {
		t.Fatalf("the store holds %d rows: too few to page more than twice", len(want))
	}
	var got []dataset.Row
	if err := st.EachRow(ctx, func(r dataset.Row) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("EachRow streamed %d rows, Range returns %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: streamed %+v, Range has %+v", i, got[i], want[i])
		}
	}

	stop := errors.New("stop")
	n := 0
	err = st.EachRow(ctx, func(dataset.Row) error {
		if n++; n == eachRowPage+5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != eachRowPage+5 {
		t.Fatalf("after the callback's error: err %v after %d rows, want stop after %d", err, n, eachRowPage+5)
	}
}

// TestQueryCancellation: RangeContext, ChurnContext, and RangePage stop
// at a canceled context instead of completing the scan.
func TestQueryCancellation(t *testing.T) {
	c := genCampaign(13, 20)
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.append(t, st)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := dnswire.MustPrefix("0.0.0.0/0")
	if _, err := st.RangeContext(ctx, p, c.times[0], c.times[19]); !errors.Is(err, context.Canceled) {
		t.Fatalf("RangeContext on canceled ctx: %v", err)
	}
	if _, err := st.ChurnContext(ctx, p, c.times[0], c.times[19]); !errors.Is(err, context.Canceled) {
		t.Fatalf("ChurnContext on canceled ctx: %v", err)
	}
	if _, _, _, err := st.RangePage(ctx, p, c.times[0], c.times[19], RangeCursor{}, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("RangePage on canceled ctx: %v", err)
	}
	// A bad page limit is rejected loudly.
	if _, _, _, err := st.RangePage(context.Background(), p, c.times[0], c.times[19], RangeCursor{}, 0); err == nil {
		t.Fatal("RangePage accepted limit 0")
	}
}
