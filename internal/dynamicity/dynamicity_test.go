package dynamicity

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
)

var start = time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)

// makeSeries builds a series over n days with the given per-day counts for
// one prefix.
func makeSeries(t *testing.T, counts map[string][]int, days int) *dataset.CountSeries {
	t.Helper()
	s := dataset.NewCountSeries(dataset.DateRange(start, start.AddDate(0, 0, days-1), 1))
	for pfx, row := range counts {
		p := dnswire.MustPrefix(pfx)
		if len(row) != days {
			t.Fatalf("row for %s has %d days, want %d", pfx, len(row), days)
		}
		for i, c := range row {
			s.Add(p, i, c)
		}
	}
	return s
}

func TestStaticPrefixNotDynamic(t *testing.T) {
	row := make([]int, 90)
	for i := range row {
		row[i] = 100
	}
	s := makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	res := Analyze(s, PaperConfig())
	if res.TotalPrefixes != 1 || res.ConsideredPrefixes != 1 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.DynamicPrefixes) != 0 {
		t.Fatal("constant prefix labelled dynamic")
	}
}

func TestSmallPrefixDiscarded(t *testing.T) {
	// Never more than 10 addresses: discarded in step 1 even though it
	// fluctuates wildly.
	row := make([]int, 90)
	for i := range row {
		row[i] = i % 10
	}
	s := makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	res := Analyze(s, PaperConfig())
	if res.ConsideredPrefixes != 0 {
		t.Fatal("small prefix not discarded")
	}
	if len(res.DynamicPrefixes) != 0 {
		t.Fatal("small prefix labelled dynamic")
	}
}

func TestExactlyTenDiscarded(t *testing.T) {
	// The paper's threshold is "never observe more than 10": exactly 10
	// must be discarded.
	row := make([]int, 90)
	for i := range row {
		row[i] = 10
	}
	s := makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	if res := Analyze(s, PaperConfig()); res.ConsideredPrefixes != 0 {
		t.Fatal("prefix peaking at exactly 10 was considered")
	}
}

func TestDynamicPrefixDetected(t *testing.T) {
	// Weekday/weekend swing: 100 on weekdays, 40 on weekends. The
	// Mon->Sat and Sun->Mon transitions are 60% changes; ~8 weekends in
	// 90 days gives ~16 qualifying days >= Y=7.
	row := make([]int, 90)
	for i := range row {
		day := start.AddDate(0, 0, i).Weekday()
		if day == time.Saturday || day == time.Sunday {
			row[i] = 40
		} else {
			row[i] = 100
		}
	}
	s := makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	res := Analyze(s, PaperConfig())
	if len(res.DynamicPrefixes) != 1 {
		t.Fatalf("dynamic = %v", res.DynamicPrefixes)
	}
	v := res.Verdicts[dnswire.MustPrefix("192.0.2.0/24")]
	if !v.Dynamic || v.MaxDaily != 100 || v.ChangeDays < 7 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestFewChangeDaysNotDynamic(t *testing.T) {
	// Only 3 big-change days: below Y=7.
	row := make([]int, 90)
	for i := range row {
		row[i] = 100
	}
	row[10], row[40], row[70] = 20, 20, 20
	s := makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	res := Analyze(s, PaperConfig())
	if len(res.DynamicPrefixes) != 0 {
		t.Fatal("3 spikes labelled dynamic (each spike is 2 change days, 6 < 7)")
	}
	// A 4th spike pushes it to 8 change days >= 7.
	row[80] = 20
	s = makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	res = Analyze(s, PaperConfig())
	if len(res.DynamicPrefixes) != 1 {
		t.Fatal("8 change days not labelled dynamic")
	}
}

func TestChangeRelativeToMax(t *testing.T) {
	// Max 200; daily swing of 15 addresses is 7.5% < X=10%: static.
	row := make([]int, 90)
	for i := range row {
		row[i] = 185 + (i%2)*15
	}
	s := makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	if res := Analyze(s, PaperConfig()); len(res.DynamicPrefixes) != 0 {
		t.Fatal("7.5% swing labelled dynamic at X=10")
	}
	// Swing of 25 is 12.5% > 10%: dynamic.
	for i := range row {
		row[i] = 175 + (i%2)*25
	}
	s = makeSeries(t, map[string][]int{"192.0.2.0/24": row}, 90)
	if res := Analyze(s, PaperConfig()); len(res.DynamicPrefixes) != 1 {
		t.Fatal("12.5% swing not labelled dynamic at X=10")
	}
}

func TestMapToAnnouncedMostSpecific(t *testing.T) {
	row := make([]int, 90)
	for i := range row {
		row[i] = 100 - (i%2)*50
	}
	s := makeSeries(t, map[string][]int{
		"10.1.1.0/24": row,
		"10.1.2.0/24": row,
		"10.2.0.0/24": row,
	}, 90)
	res := Analyze(s, PaperConfig())
	if len(res.DynamicPrefixes) != 3 {
		t.Fatalf("dynamic = %v", res.DynamicPrefixes)
	}
	announced := []dnswire.Prefix{
		dnswire.MustPrefix("10.0.0.0/8"),
		dnswire.MustPrefix("10.1.0.0/16"),
	}
	entries := MapToAnnounced(res, announced)
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	for _, e := range entries {
		switch e.Prefix.String() {
		case "10.1.0.0/16":
			if e.DynamicSlash24s != 2 || e.TotalSlash24s != 256 {
				t.Fatalf("/16 entry = %+v", e)
			}
		case "10.0.0.0/8":
			if e.DynamicSlash24s != 1 {
				t.Fatalf("/8 entry = %+v", e)
			}
		default:
			t.Fatalf("unexpected announced prefix %v", e.Prefix)
		}
	}
	dist := DistributionBySize(entries)
	if len(dist) != 2 || dist[0].Bits != 8 || dist[1].Bits != 16 {
		t.Fatalf("distribution = %+v", dist)
	}
}

func TestValidationCampusGroundTruth(t *testing.T) {
	// Reproduce the paper's Section 4.1 validation: the heuristic must
	// find exactly the 40 leaky-dynamic prefixes, keep the 83
	// DHCP-but-static-rDNS prefixes static, and the other static and
	// empty prefixes must not be flagged.
	campus, truth, err := netsim.BuildValidationCampus(3, time.UTC)
	if err != nil {
		t.Fatal(err)
	}
	u := &netsim.Universe{Networks: []*netsim.Network{campus}}
	res := scan.Run(scan.Campaign{
		Universe: u,
		Start:    time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2021, 3, 31, 0, 0, 0, 0, time.UTC),
		Cadence:  scan.Daily,
	})
	verdict := Analyze(res.Series, PaperConfig())

	dynamicSet := make(map[dnswire.Prefix]bool)
	for _, p := range verdict.DynamicPrefixes {
		dynamicSet[p] = true
	}
	for _, p := range truth["dynamic"] {
		if !dynamicSet[p] {
			t.Errorf("true dynamic prefix %v not flagged", p)
		}
	}
	for _, class := range []string{"dhcp-static", "static", "empty"} {
		for _, p := range truth[class] {
			if dynamicSet[p] {
				t.Errorf("%s prefix %v wrongly flagged dynamic", class, p)
			}
		}
	}
	if got := len(verdict.DynamicPrefixes); got != 40 {
		t.Errorf("dynamic prefixes = %d, want 40", got)
	}
}

func TestThresholdSweepMonotonicity(t *testing.T) {
	// Stricter Y can only shrink the dynamic set.
	campus, _, err := netsim.BuildValidationCampus(3, time.UTC)
	if err != nil {
		t.Fatal(err)
	}
	u := &netsim.Universe{Networks: []*netsim.Network{campus}}
	res := scan.Run(scan.Campaign{
		Universe: u,
		Start:    time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2021, 2, 15, 0, 0, 0, 0, time.UTC),
		Cadence:  scan.Daily,
	})
	prev := 1 << 30
	for y := 1; y <= 21; y += 5 {
		cfg := PaperConfig()
		cfg.MinChangeDays = y
		got := len(Analyze(res.Series, cfg).DynamicPrefixes)
		if got > prev {
			t.Fatalf("dynamic count grew from %d to %d as Y rose to %d", prev, got, y)
		}
		prev = got
	}
}
