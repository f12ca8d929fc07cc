package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/telemetry"
)

// Determinism is load-bearing: the paper-vs-measured comparison in
// EXPERIMENTS.md is only meaningful if the same seed always yields the
// same universe and the same measurements.

func microConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		Universe: netsim.UniverseConfig{
			FillerSlash24s:        120,
			LeakyNetworks:         10,
			NonLeakyDynamic:       1,
			PeoplePerDynamicBlock: 6,
		},
		LeakThresholds:    privleak.Config{MinUniqueNames: 4, MinRatio: 0.01},
		DynamicityStart:   date(2020, time.September, 7),
		DynamicityEnd:     date(2020, time.September, 27),
		SupplementalStart: date(2021, time.November, 22),
		SupplementalEnd:   date(2021, time.November, 26),
	}
}

func TestSameSeedSameUniverse(t *testing.T) {
	a, err := NewStudy(microConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(microConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Universe.Networks) != len(b.Universe.Networks) {
		t.Fatalf("network counts differ: %d vs %d",
			len(a.Universe.Networks), len(b.Universe.Networks))
	}
	for i := range a.Universe.Networks {
		na, nb := a.Universe.Networks[i], b.Universe.Networks[i]
		if na.Name() != nb.Name() {
			t.Fatalf("network %d: %s vs %s", i, na.Name(), nb.Name())
		}
		ra, rb := observed(na), observed(nb)
		if len(ra) != len(rb) {
			t.Fatalf("%s: record counts differ: %d vs %d", na.Name(), len(ra), len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("%s record %d differs: %q vs %q", na.Name(), j, ra[j], rb[j])
			}
		}
	}
}

// observed lists what n publishes in reverse DNS every six hours of one
// week, sorted: the visible face of its seeded population.
func observed(n *netsim.Network) []string {
	var out []string
	start := date(2021, time.November, 1)
	for h := 0; h < 7*24; h += 6 {
		n.RecordsAt(start.Add(time.Duration(h)*time.Hour), func(r netsim.Record) {
			out = append(out, fmt.Sprintf("%03d %s %s", h, r.IP, r.HostName))
		})
	}
	sort.Strings(out)
	return out
}

func TestSameSeedSameMeasurements(t *testing.T) {
	run := func() (int, int, float64, int) {
		s, err := NewStudy(microConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		dyn := s.Dynamicity()
		leak := s.PrivLeak()
		fig7b := s.Figure7b()
		funnel := s.Supplemental().Funnel()
		return len(dyn.DynamicPrefixes), len(leak.Identified),
			fig7b.Within60Overall, funnel.All
	}
	d1, l1, w1, f1 := run()
	d2, l2, w2, f2 := run()
	if d1 != d2 || l1 != l2 || w1 != w2 || f1 != f2 {
		t.Fatalf("two identical runs diverged: (%d,%d,%v,%d) vs (%d,%d,%v,%d)",
			d1, l1, w1, f1, d2, l2, w2, f2)
	}
}

// TestSupplementalExportsMetrics: a study given a registry hands it to the
// Section 6 run too, so `reactive -metrics-addr` exports the engine's
// reactive_* and its resolver's dnsclient_* counters.
func TestSupplementalExportsMetrics(t *testing.T) {
	cfg := microConfig(9)
	cfg.SupplementalEnd = cfg.SupplementalStart.AddDate(0, 0, 1)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Supplemental()
	counters := reg.Snapshot().Counters
	for _, name := range []string{reactive.MetricSweeps, dnsclient.MetricQueries} {
		if counters[name] == 0 {
			t.Errorf("%s = 0 after a supplemental day", name)
		}
	}
}

func TestDifferentSeedDifferentUniverse(t *testing.T) {
	a, err := NewStudy(microConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(microConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	// Some record somewhere must differ (hostnames are seed-derived).
	ra, rb := observed(a.Universe.Networks[0]), observed(b.Universe.Networks[0])
	if slices.Equal(ra, rb) {
		t.Fatal("different seeds produced identical populations")
	}
}
