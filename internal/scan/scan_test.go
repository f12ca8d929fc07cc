package scan

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/simclock"
)

func smallUniverse(t *testing.T) *netsim.Universe {
	t.Helper()
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  42,
		FillerSlash24s:        900,
		LeakyNetworks:         15,
		NonLeakyDynamic:       4,
		PeoplePerDynamicBlock: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestCampaignProducesSeries(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC) // Monday
	res := Run(Campaign{
		Universe: u,
		Start:    start,
		End:      start.AddDate(0, 0, 13),
		Cadence:  Daily,
	})
	if len(res.Series.Dates) != 14 {
		t.Fatalf("dates = %d, want 14", len(res.Series.Dates))
	}
	if len(res.Series.Counts) == 0 {
		t.Fatal("empty series")
	}
	if res.Stats.TotalResponses == 0 || res.Stats.UniquePTRs == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Every count is within a /24's capacity.
	for p, row := range res.Series.Counts {
		for i, c := range row {
			if c < 0 || c > 256 {
				t.Fatalf("count %d for %v day %d out of range", c, p, i)
			}
		}
	}
}

func TestWeeklyCadence(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	res := Run(Campaign{
		Universe: u,
		Start:    start,
		End:      start.AddDate(0, 0, 27),
		Cadence:  Weekly,
		Networks: []string{"Academic-A"},
	})
	if len(res.Series.Dates) != 4 {
		t.Fatalf("dates = %d, want 4 weekly snapshots over 28 days", len(res.Series.Dates))
	}
}

func TestNetworkRestrictedCampaignSkipsFiller(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	res := Run(Campaign{
		Universe: u, Start: start, End: start, Cadence: Daily,
		Networks: []string{"Academic-A"},
	})
	n, _ := u.NetworkByName("Academic-A")
	for p := range res.Series.Counts {
		if !n.Config().Announced.Contains(p.Addr) {
			t.Fatalf("series contains out-of-network prefix %v", p)
		}
	}
}

func TestFillerConstantAcrossDays(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	res := Run(Campaign{
		Universe: u, Start: start, End: start.AddDate(0, 0, 6), Cadence: Daily,
	})
	f := u.Filler[0]
	row := res.Series.Counts[f.Prefix]
	if row == nil {
		t.Fatal("filler prefix missing from series")
	}
	for i, c := range row {
		if c != f.Count() {
			t.Fatalf("filler count day %d = %d, want %d", i, c, f.Count())
		}
	}
}

func TestDynamicPrefixVaries(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC) // Monday
	res := Run(Campaign{
		Universe: u, Start: start, End: start.AddDate(0, 0, 13),
		Cadence: Daily, Networks: []string{"Enterprise-A"},
	})
	n, _ := u.NetworkByName("Enterprise-A")
	varies := false
	for _, b := range n.Config().Blocks {
		if b.Kind != netsim.BlockDynamic {
			continue
		}
		for _, p := range b.Prefix.Slash24s() {
			row := res.Series.Counts[p]
			if row == nil {
				continue
			}
			for i := 1; i < len(row); i++ {
				if row[i] != row[0] {
					varies = true
				}
			}
		}
	}
	if !varies {
		t.Fatal("no dynamic prefix varied over two weeks")
	}
}

func TestStatsCollectorViaCampaign(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 6, 7, 0, 0, 0, 0, time.UTC)
	one := Run(Campaign{Universe: u, Start: start, End: start, Cadence: Daily})
	two := Run(Campaign{Universe: u, Start: start, End: start.AddDate(0, 0, 1), Cadence: Daily})
	if two.Stats.TotalResponses <= one.Stats.TotalResponses {
		t.Fatalf("responses did not grow: %d then %d",
			one.Stats.TotalResponses, two.Stats.TotalResponses)
	}
	// Unique PTRs grow far slower than responses (names repeat daily).
	growth := float64(two.Stats.UniquePTRs) / float64(one.Stats.UniquePTRs)
	if growth > 1.5 {
		t.Fatalf("unique PTRs grew %.2fx in one day; uniqueness tracking broken", growth)
	}
}

func TestWireAndFastPathsAgree(t *testing.T) {
	// The fast path must produce exactly the records the wire path
	// observes, for a live network, including static and dynamic blocks.
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  7,
		FillerSlash24s:        1,
		LeakyNetworks:         10,
		NonLeakyDynamic:       1,
		PeoplePerDynamicBlock: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := u.NetworkByName("Enterprise-A")

	// Tuesday 10:30 local: employees online.
	at := time.Date(2021, 11, 2, 10, 30, 0, 0, time.UTC)
	clock := simclock.NewSimulated(at.Add(-2 * time.Hour))
	fab := fabric.New(clock, fabric.Config{Latency: time.Millisecond})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	clock.AdvanceTo(at)

	res, err := dnsclient.NewResolver(fab,
		dnsclient.WithBind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40000}),
		dnsclient.WithServer(n.DNSAddr()))
	if err != nil {
		t.Fatal(err)
	}

	// One PTR lookup per address of the network's blocks, all in flight on
	// the simulated clock.
	wire := make(map[dnswire.IPv4]dnswire.Name)
	asked, answered := 0, 0
	for _, b := range n.Config().Blocks {
		for i := 0; i < b.Prefix.NumAddresses(); i++ {
			ip := b.Prefix.Nth(i)
			asked++
			res.LookupPTR(context.Background(), ip, func(r dnsclient.Response) {
				answered++
				if r.Outcome == dnsclient.OutcomeSuccess {
					wire[ip] = r.PTR
				} else if r.Outcome != dnsclient.OutcomeNXDomain && r.Outcome != dnsclient.OutcomeNoData {
					t.Errorf("wire scan error for %v: %v", ip, r.Outcome)
				}
			})
		}
	}
	clock.Advance(5 * time.Minute)
	if answered != asked {
		t.Fatalf("wire scan completed %d of %d lookups", answered, asked)
	}

	fast := make(map[dnswire.IPv4]dnswire.Name)
	n.RecordsAt(clock.Now(), func(r netsim.Record) { fast[r.IP] = r.HostName })

	// Live zones may contain lingering records for devices that left
	// within the lease window; the fast path models the same. Compare
	// the two maps, allowing the live side to lag by renewal timing:
	// every fast record present in wire must match exactly, and the set
	// difference must involve only dynamic-block addresses.
	for ip, name := range fast {
		if wname, ok := wire[ip]; ok && wname != name {
			t.Fatalf("name mismatch at %v: fast %q wire %q", ip, name, wname)
		}
	}
	missing, extra := 0, 0
	for ip := range fast {
		if _, ok := wire[ip]; !ok {
			missing++
			if !isDynamicIP(n, ip) {
				t.Fatalf("static record %v missing from wire scan", ip)
			}
		}
	}
	for ip := range wire {
		if _, ok := fast[ip]; !ok {
			extra++
			if !isDynamicIP(n, ip) {
				t.Fatalf("static record %v extra in wire scan", ip)
			}
		}
	}
	total := len(fast)
	if total == 0 {
		t.Fatal("no records at all")
	}
	if missing+extra > total/10 {
		t.Fatalf("wire/fast divergence too large: %d missing, %d extra of %d",
			missing, extra, total)
	}
}

func isDynamicIP(n *netsim.Network, ip dnswire.IPv4) bool {
	for _, b := range n.Config().Blocks {
		if b.Kind == netsim.BlockDynamic && b.Policy == ipam.PolicyCarryOver && b.Prefix.Contains(ip) {
			return true
		}
	}
	return false
}

func TestDateRange(t *testing.T) {
	start := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	days := dataset.DateRange(start, start.AddDate(0, 0, 9), 1)
	if len(days) != 10 {
		t.Fatalf("daily range = %d, want 10", len(days))
	}
	weeks := dataset.DateRange(start, start.AddDate(0, 0, 21), 7)
	if len(weeks) != 4 {
		t.Fatalf("weekly range = %d, want 4", len(weeks))
	}
}

// TestCampaignPersistsToStore pins the Campaign.Store wiring: every
// snapshot lands in the history store as one append, the store's Range
// over a day reproduces that day's record count, and with an Observer
// attached every frame carries the store's cumulative state.
func TestCampaignPersistsToStore(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	st, err := histstore.Open(filepath.Join(t.TempDir(), "campaign.hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := obs.NewRecorder(nil)
	res := Run(Campaign{
		Universe:   u,
		Start:      start,
		End:        start.AddDate(0, 0, 6),
		Cadence:    Daily,
		Networks:   []string{u.Networks[0].Name()},
		SkipFiller: true,
		Observer:   rec,
		Store:      st,
	})
	if res.StoreErr != nil {
		t.Fatalf("store error: %v", res.StoreErr)
	}
	if st.Len() != 7 {
		t.Fatalf("store has %d snapshots, want 7", st.Len())
	}
	// The store's full-range row count per day equals the series total.
	times := st.Times()
	for i, d := range times {
		rows, err := st.Range(dnswire.Prefix{}, d, d)
		if err != nil {
			t.Fatal(err)
		}
		var want int
		for _, row := range res.Series.Counts {
			want += row[i]
		}
		if len(rows) != want {
			t.Fatalf("day %d: store %d rows, series %d", i, len(rows), want)
		}
	}
	// Every frame carries the store state; the last frame matches Stats.
	frames := rec.Frames()
	if len(frames) != 7 {
		t.Fatalf("%d frames, want 7", len(frames))
	}
	for i, f := range frames {
		if f.Store == nil {
			t.Fatalf("frame %d missing store stats", i)
		}
		if f.Store.Snapshots != i+1 {
			t.Fatalf("frame %d: %d snapshots, want %d", i, f.Store.Snapshots, i+1)
		}
	}
	s := st.Stats()
	last := frames[6].Store
	if last.Blocks != s.Blocks || last.BaseFrames != s.BaseFrames ||
		last.DeltaFrames != s.DeltaFrames || last.Bytes != s.Bytes {
		t.Fatalf("last frame %+v vs stats %+v", last, s)
	}
}

// TestCampaignStoreAppendFailure pins the degradation contract: a store
// that rejects appends (closed underneath the campaign) surfaces the
// first error in StoreErr while the sweep itself completes.
func TestCampaignStoreAppendFailure(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	st, err := histstore.Open(filepath.Join(t.TempDir(), "campaign.hist"))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	res := Run(Campaign{
		Universe:   u,
		Start:      start,
		End:        start.AddDate(0, 0, 2),
		Cadence:    Daily,
		Networks:   []string{u.Networks[0].Name()},
		SkipFiller: true,
		Store:      st,
	})
	if res.StoreErr == nil {
		t.Fatal("closed store accepted appends")
	}
	if len(res.Series.Dates) != 3 || res.Stats.TotalResponses == 0 {
		t.Fatalf("sweep did not complete: %+v", res.Stats)
	}
}

// TestCampaignCompactEvery pins the in-campaign compaction wiring: with
// CompactEvery set the campaign seals its own tail every N appends, the
// history survives intact, and the health frames report the compaction
// progress.
func TestCampaignCompactEvery(t *testing.T) {
	u := smallUniverse(t)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	st, err := histstore.Open(filepath.Join(t.TempDir(), "campaign.hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := obs.NewRecorder(nil)
	res := Run(Campaign{
		Universe:     u,
		Start:        start,
		End:          start.AddDate(0, 0, 6),
		Cadence:      Daily,
		Networks:     []string{u.Networks[0].Name()},
		SkipFiller:   true,
		Observer:     rec,
		Store:        st,
		CompactEvery: 3,
	})
	if res.StoreErr != nil {
		t.Fatalf("store error: %v", res.StoreErr)
	}
	s := st.Stats()
	if st.Len() != 7 || s.Segments != 2 || s.Compaction.Runs != 2 || s.Compaction.SealedSnapshots != 6 {
		t.Fatalf("after compacting campaign: len %d, stats %+v", st.Len(), s)
	}
	rows, err := st.Range(dnswire.Prefix{}, st.Times()[0], st.Times()[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("compacted campaign history is empty")
	}
	last := rec.Frames()[6].Store
	if last.Compactions != 2 || last.SealedSnapshots != 6 || last.Segments != 2 {
		t.Fatalf("last frame store stats: %+v", last)
	}
}
