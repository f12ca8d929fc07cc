package core

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/casestudy"
	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/scan"
)

// fiveCampaigns is the study as it was before one campaign fed it: five
// separately cached campaigns over overlapping windows and the Section 5
// analysis's own seven-snapshot sweep. The method bodies below are that
// study's, verbatim; they are the oracle of
// TestOneCampaignMatchesFiveCampaigns.
type fiveCampaigns struct {
	*Study

	mu           sync.Mutex
	dynSeries    *dataset.CountSeries
	dynResult    *dynamicity.Result
	leakResult   *privleak.Result
	dailyAll     *scan.Result
	weeklyAll    *scan.Result
	perNetDaily  map[string]*scan.Result
	perNetWeekly map[string]*scan.Result
}

func newFiveCampaigns(t *testing.T, cfg Config) *fiveCampaigns {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fiveCampaigns{
		Study:        s,
		perNetDaily:  make(map[string]*scan.Result),
		perNetWeekly: make(map[string]*scan.Result),
	}
}

// DynamicitySeries returns (cached) the 90-day whole-universe daily count
// series of the Section 4 window.
func (s *fiveCampaigns) DynamicitySeries() *dataset.CountSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dynSeries == nil {
		res := scan.Run(scan.Campaign{
			Universe:  s.Universe,
			Start:     s.Cfg.DynamicityStart,
			End:       s.Cfg.DynamicityEnd,
			Cadence:   scan.Daily,
			Telemetry: s.Cfg.Telemetry,
			Observer:  s.Cfg.Observer,
		})
		s.dynSeries = res.Series
	}
	return s.dynSeries
}

// Dynamicity returns (cached) the Section 4 heuristic result.
func (s *fiveCampaigns) Dynamicity() *dynamicity.Result {
	series := s.DynamicitySeries()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dynResult == nil {
		s.dynResult = dynamicity.Analyze(series, dynamicity.PaperConfig())
	}
	return s.dynResult
}

// PrivLeak returns (cached) the Section 5 identification result, computed
// over a union of LeakWindowDays daily snapshots with the scaled
// thresholds.
func (s *fiveCampaigns) PrivLeak() *privleak.Result {
	dyn := s.Dynamicity()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leakResult != nil {
		return s.leakResult
	}
	dynSet := make(map[dnswire.Prefix]bool, len(dyn.DynamicPrefixes))
	for _, p := range dyn.DynamicPrefixes {
		dynSet[p] = true
	}
	a := privleak.NewAnalyzer(s.Cfg.LeakThresholds)
	seen := make(map[uint64]struct{}, 1<<20)
	// Union the LAST days of the dynamicity window: its first days can
	// sit inside the winter break, when campuses are empty and academic
	// networks would be under-counted. Each day is one sharded engine
	// sweep over the whole universe.
	ctx := context.Background()
	for d := 0; d < s.Cfg.LeakWindowDays; d++ {
		at := s.Cfg.DynamicityEnd.AddDate(0, 0, d+1-s.Cfg.LeakWindowDays).Add(13 * time.Hour)
		snap, err := scan.Snapshot(ctx, scan.Campaign{Universe: s.Universe}, at)
		if err != nil {
			break
		}
		for ip, name := range snap.Records {
			key := recordKey(ip, name)
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			a.Observe(privleak.RecordObservation{
				IP: ip, HostName: name, Dynamic: dynSet[ip.Slash24()],
			})
		}
	}
	s.leakResult = a.Finish()
	return s.leakResult
}

// DailyCampaign returns (cached) the full-universe OpenINTEL-like campaign.
// This is the heaviest longitudinal computation of the study.
func (s *fiveCampaigns) DailyCampaign() *scan.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dailyAll == nil {
		s.dailyAll = scan.Run(scan.Campaign{
			Universe:  s.Universe,
			Start:     s.Cfg.OpenINTELStart,
			End:       s.Cfg.OpenINTELEnd,
			Cadence:   scan.Daily,
			Telemetry: s.Cfg.Telemetry,
			Observer:  s.Cfg.Observer,
		})
	}
	return s.dailyAll
}

// WeeklyCampaign returns (cached) the full-universe Rapid7-like campaign.
func (s *fiveCampaigns) WeeklyCampaign() *scan.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.weeklyAll == nil {
		s.weeklyAll = scan.Run(scan.Campaign{
			Universe:  s.Universe,
			Start:     s.Cfg.Rapid7Start,
			End:       s.Cfg.Rapid7End,
			Cadence:   scan.Weekly,
			Telemetry: s.Cfg.Telemetry,
			Observer:  s.Cfg.Observer,
		})
	}
	return s.weeklyAll
}

// network returns a universe holding the named network alone, without
// filler (empty when the study has no such network).
func (s *fiveCampaigns) network(name string) *netsim.Universe {
	u := &netsim.Universe{}
	if n, ok := s.Universe.NetworkByName(name); ok {
		u.Networks = append(u.Networks, n)
	}
	return u
}

// NetworkDaily returns (cached) a network-restricted daily campaign over
// the OpenINTEL window (used by Figures 9 and 10 — far cheaper than the
// whole-universe campaign).
func (s *fiveCampaigns) NetworkDaily(name string) *scan.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.perNetDaily[name]; ok {
		return r
	}
	r := scan.Run(scan.Campaign{
		Universe: s.network(name),
		Start:    s.Cfg.OpenINTELStart,
		End:      s.Cfg.OpenINTELEnd,
		Cadence:  scan.Daily,
	})
	s.perNetDaily[name] = r
	return r
}

// NetworkWeekly returns (cached) a network-restricted weekly campaign over
// the Rapid7 window.
func (s *fiveCampaigns) NetworkWeekly(name string) *scan.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.perNetWeekly[name]; ok {
		return r
	}
	r := scan.Run(scan.Campaign{
		Universe: s.network(name),
		Start:    s.Cfg.Rapid7Start,
		End:      s.Cfg.Rapid7End,
		Cadence:  scan.Weekly,
	})
	s.perNetWeekly[name] = r
	return r
}

// Table1 runs both full-universe campaigns and summarizes them.
func (s *fiveCampaigns) Table1() Table1Result {
	return Table1Result{
		Rapid7:    s.WeeklyCampaign().Stats,
		OpenINTEL: s.DailyCampaign().Stats,
	}
}

// Figure9 computes the work-from-home series for the three academic and
// two ICMP-blocking enterprise networks (the paper's selection).
func (s *fiveCampaigns) Figure9() Figure9Result {
	selection := []struct {
		name     string
		lockdown time.Time
	}{
		{"Academic-A", date(2020, time.March, 16)},
		{"Academic-B", date(2020, time.March, 16)},
		{"Academic-C", date(2020, time.March, 13)},
		{"Enterprise-B", date(2021, time.March, 15)},
		{"Enterprise-C", date(2021, time.March, 15)},
	}
	var out Figure9Result
	for _, sel := range selection {
		res := s.NetworkDaily(sel.name)
		totals := casestudy.EntrySeries(res.Series, nil)
		out.Reports = append(out.Reports, casestudy.WFH(sel.name, totals, sel.lockdown))
	}
	return out
}

// Figure10 computes the per-subnet series for Academic-C.
func (s *fiveCampaigns) Figure10() Figure10Result {
	n, _ := s.Universe.NetworkByName("Academic-C")
	edu, housing := netsim.EducationHousingSplit(n)
	searchFrom := date(2020, time.February, 1)

	daily := s.NetworkDaily("Academic-C")
	weekly := s.NetworkWeekly("Academic-C")
	return Figure10Result{
		Daily: casestudy.Crossover(
			casestudy.EntrySeries(daily.Series, edu),
			casestudy.EntrySeries(daily.Series, housing), searchFrom, 7),
		Weekly: casestudy.Crossover(
			casestudy.EntrySeries(weekly.Series, edu),
			casestudy.EntrySeries(weekly.Series, housing), searchFrom, 2),
	}
}

// absent lists the /24s a series never saw, out of the given universe of
// candidates, sorted.
func absent(s *dataset.CountSeries, candidates map[dnswire.Prefix]bool) []string {
	var out []string
	for p := range candidates {
		if _, ok := s.Counts[p]; !ok {
			out = append(out, p.String())
		}
	}
	sort.Strings(out)
	return out
}

// TestOneCampaignMatchesFiveCampaigns requires the study's one campaign to
// derive exactly what five campaigns and the Section 5 sweep computed:
// both Table 1 statistics, the Section 4 series (dates, counts, and which
// /24s it never saw), the Section 5 result, and Figures 9 and 10. The
// micro configurations have no filler. The last two have some, and windows
// that do not nest: a dynamicity window before the daily one and off the
// weekly grid, then a Christmas-week one in which some /24s that hold
// records on other days of the span stay empty, shorter than its leak
// window.
func TestOneCampaignMatchesFiveCampaigns(t *testing.T) {
	apart := microConfig(9)
	apart.Universe.FillerSlash24s = 400
	apart.DynamicityStart = date(2019, time.November, 4)
	apart.DynamicityEnd = date(2019, time.December, 15)
	apart.LeakWindowDays = 10
	holiday := apart
	holiday.DynamicityStart = date(2019, time.December, 21)
	holiday.DynamicityEnd = date(2019, time.December, 29)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"micro-9", microConfig(9)},
		{"micro-10", microConfig(10)},
		{"windows-apart", apart},
		{"holiday", holiday},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := newFiveCampaigns(t, tc.cfg)
			got, err := NewStudy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}

			if g, w := got.Table1(), want.Table1(); !reflect.DeepEqual(g, w) {
				t.Errorf("Table 1:\n got  %+v\n want %+v", g, w)
			}

			g, w := got.DynamicitySeries(), want.DynamicitySeries()
			if !reflect.DeepEqual(g.Dates, w.Dates) {
				t.Errorf("Section 4 dates: got %d from %v, want %d from %v", len(g.Dates), g.Dates[0], len(w.Dates), w.Dates[0])
			}
			candidates := make(map[dnswire.Prefix]bool)
			for _, n := range got.Universe.Networks {
				for _, p := range n.Config().Announced.Slash24s() {
					candidates[p] = true
				}
			}
			for _, f := range got.Universe.Filler {
				candidates[f.Prefix] = true
			}
			if ga, wa := absent(g, candidates), absent(w, candidates); !reflect.DeepEqual(ga, wa) {
				t.Errorf("Section 4 absent /24s: got %d, want %d", len(ga), len(wa))
			}
			if span := got.campaign().series; tc.name == "holiday" && len(span.Cut(got.Cfg.windows().dyn).Counts) == len(span.Counts) {
				t.Error("every /24 of the span is counted in the holiday window: the case no longer tests the cut")
			}
			if !reflect.DeepEqual(g.Counts, w.Counts) {
				t.Errorf("Section 4 counts differ: %d rows, want %d", len(g.Counts), len(w.Counts))
			}

			if g, w := got.PrivLeak(), want.PrivLeak(); !reflect.DeepEqual(g, w) {
				t.Errorf("Section 5 result differs: %d identified of %d suffixes, want %d of %d",
					len(g.Identified), len(g.Suffixes), len(w.Identified), len(w.Suffixes))
			}
			if g, w := got.Figure9(), want.Figure9(); !reflect.DeepEqual(g, w) {
				t.Error("Figure 9 differs")
			}
			if g, w := got.Figure10(), want.Figure10(); !reflect.DeepEqual(g, w) {
				t.Errorf("Figure 10 differs: crossovers %v/%v, want %v/%v",
					g.Daily.Crossover, g.Weekly.Crossover, w.Daily.Crossover, w.Weekly.Crossover)
			}
		})
	}
}
