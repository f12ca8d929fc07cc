package scan

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/scanengine"
)

// fullFold is the campaign's result folded record by record: each date
// swept by a fresh scanner, so no sweep has a diff, and every record of
// every day observed and counted. It is the oracle of
// TestRunStatsMatchFullFold.
func fullFold(t *testing.T, c Campaign) *Result {
	t.Helper()
	dates := dataset.DateRange(c.Start, c.End, c.Cadence.IntervalDays())
	series := dataset.NewCountSeries(dates)
	collector := dataset.NewStatsCollector(c.Cadence.String())
	if len(c.Networks) == 0 && !c.SkipFiller {
		FoldFiller(c.Universe, dates, collector, series, nil)
	}
	nets := c
	nets.SkipFiller = true
	for i, d := range dates {
		snap, err := Snapshot(context.Background(), nets, d.Add(c.timeOfDay()))
		if err != nil {
			t.Fatal(err)
		}
		for ip, name := range snap.Records {
			collector.Observe(d, ip, name)
			series.Add(ip.Slash24(), i, 1)
		}
	}
	r := &Result{Series: series, Stats: collector.Stats()}
	r.Stats.Start, r.Stats.End = c.Start, c.End
	return r
}

// TestRunStatsMatchFullFold requires Run's fold — a count per /24, and
// only the records each day's diff calls new or renamed into the distinct
// sets — to equal the record-by-record fold of every day. Two consecutive
// batches go into one store, the way campaign-ingest drives Run; the
// second also folds the universe's filler.
func TestRunStatsMatchFullFold(t *testing.T) {
	u := smallUniverse(t)
	st, err := histstore.Open(filepath.Join(t.TempDir(), "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	for batch, skipFiller := range []bool{true, false} {
		c := Campaign{
			Universe:     u,
			Start:        start.AddDate(0, 0, 9*batch),
			End:          start.AddDate(0, 0, 9*batch+8),
			Cadence:      Daily,
			SkipFiller:   skipFiller,
			Store:        st,
			CompactEvery: 4,
		}
		got := Run(c)
		if got.StoreErr != nil {
			t.Fatal(got.StoreErr)
		}
		want := fullFold(t, c)
		if got.Stats != want.Stats {
			t.Fatalf("batch %d: stats %+v, full fold %+v", batch, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.Series, want.Series) {
			t.Fatalf("batch %d: count series differ from the full fold", batch)
		}
		if got.Stats.UniqueIPs == 0 || got.Stats.TotalResponses <= got.Stats.UniqueIPs {
			t.Fatalf("batch %d: degenerate stats %+v", batch, got.Stats)
		}
	}
	if st.Len() != 18 {
		t.Fatalf("store holds %d snapshots, want 18", st.Len())
	}
}

// TestFoldTakesRenamedNames covers the diff path of the fold on records
// the study's universe rarely produces: an address that keeps its record
// but is renamed to a name never seen before, next to a join and a leave.
// The renamed name must reach the distinct-name set.
func TestFoldTakesRenamedNames(t *testing.T) {
	a, b, c := dnswire.MustIPv4("10.9.0.1"), dnswire.MustIPv4("10.9.0.2"), dnswire.MustIPv4("10.9.1.3")
	days := []scanengine.RecordSet{
		{a: "alpha.example.org.", b: "beta.example.org."},
		{a: "renamed.example.org.", c: "gamma.example.org."},
	}
	var day int
	sc := scanengine.New(scanengine.SourceFunc(func(_ context.Context, ip dnswire.IPv4) scanengine.Result {
		name, ok := days[day][ip]
		return scanengine.Result{IP: ip, Name: name, Found: ok}
	}), scanengine.WithShardBits(24))
	dates := []time.Time{time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC), time.Date(2021, 3, 2, 0, 0, 0, 0, time.UTC)}
	got, want := dataset.NewStatsCollector("fold"), dataset.NewStatsCollector("fold")
	series := dataset.NewCountSeries(dates)
	for day = range days {
		snap, err := sc.Scan(context.Background(), scanengine.Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.9.0.0/23")}})
		if err != nil {
			t.Fatal(err)
		}
		if (day > 0) != (snap.Changes != nil) {
			t.Fatalf("day %d: changes %v", day, snap.Changes)
		}
		fold(got, series, sweptDay{i: day, date: dates[day], snap: snap})
		for ip, name := range days[day] {
			want.Observe(dates[day], ip, name)
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w || w.UniquePTRs != 4 {
		t.Fatalf("fold stats %+v, record by record %+v", g, w)
	}
}
