// Package core orchestrates the complete reproduction study: it owns the
// simulated universe, runs the longitudinal scanning campaign, the Section
// 4 dynamicity analysis, the Section 5 privacy-leak identification, and the
// Section 6 supplemental (ICMP + reactive rDNS) measurement, and exposes one
// method per table and figure of the paper's evaluation.
//
// One campaign sweeps the dynamic networks daily over the span covering
// every window the Config names. One fold per instant derives Table 1 and
// the Section 5 union, the Section 4 and Figure 9/10 series are cuts of its
// count series, and filler is folded once per window, never swept.
package core

import (
	"sync"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/icmp"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// Config scales and schedules the study. Zero values take the defaults of
// the paper's timeline at 1/100 universe scale.
type Config struct {
	// Seed drives all generation and simulation.
	Seed uint64
	// Universe scales the simulated address space.
	Universe netsim.UniverseConfig

	// Rapid7Start/End delimit the weekly grid (paper: 2019-10-01 to 2021-01-01).
	Rapid7Start, Rapid7End time.Time
	// OpenINTELStart/End delimit the daily data set (paper: 2020-02-17
	// to 2021-12-01).
	OpenINTELStart, OpenINTELEnd time.Time
	// DynamicityStart/End delimit the Section 4 window (paper: 2021-01
	// to 2021-03).
	DynamicityStart, DynamicityEnd time.Time
	// SupplementalStart/End delimit the Section 6 window (paper:
	// 2021-10-25 to 2021-12-05).
	SupplementalStart, SupplementalEnd time.Time

	// LeakWindowDays is how many daily snapshots the Section 5 analysis
	// unions (default 7).
	LeakWindowDays int
	// LeakThresholds are the Section 5 thresholds (default the
	// 1/100-scale-adjusted ones; see privleak.ScaledConfig).
	LeakThresholds privleak.Config
	// DNSFailure injects name-server failures during the supplemental
	// run (Figure 6 error mix). The default injects 0.5% SERVFAIL and
	// 0.3% drops.
	DNSFailure dnsserver.FailureMode

	// Telemetry, when set, receives engine metrics from the study's
	// campaign. Nil keeps the engines on their zero-overhead path.
	Telemetry telemetry.Sink
	// Observer, when set, captures one obs.Frame per day of the study's
	// campaign, indexed over its span (see docs/observability.md).
	Observer *obs.Recorder
	// Tracer, when set, is threaded through the supplemental run's
	// client, fabric, and server layers so probe attempts emit the
	// correlated span chains experiments -trace stitches.
	Tracer *telemetry.Tracer
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func (c *Config) fillDefaults() {
	c.Universe.Seed = c.Seed
	if c.Rapid7Start.IsZero() {
		c.Rapid7Start = date(2019, time.October, 1)
	}
	if c.Rapid7End.IsZero() {
		c.Rapid7End = date(2021, time.January, 1)
	}
	if c.OpenINTELStart.IsZero() {
		c.OpenINTELStart = date(2020, time.February, 17)
	}
	if c.OpenINTELEnd.IsZero() {
		c.OpenINTELEnd = date(2021, time.December, 1)
	}
	if c.DynamicityStart.IsZero() {
		c.DynamicityStart = date(2021, time.January, 1)
	}
	if c.DynamicityEnd.IsZero() {
		c.DynamicityEnd = date(2021, time.March, 31)
	}
	if c.SupplementalStart.IsZero() {
		c.SupplementalStart = date(2021, time.October, 25)
	}
	if c.SupplementalEnd.IsZero() {
		c.SupplementalEnd = date(2021, time.December, 5)
	}
	if c.LeakWindowDays == 0 {
		c.LeakWindowDays = 7
	}
	if c.LeakThresholds.MinUniqueNames == 0 {
		c.LeakThresholds = privleak.ScaledConfig()
	}
	if c.DNSFailure == (dnsserver.FailureMode{}) {
		c.DNSFailure = dnsserver.FailureMode{
			ServFailRate: 0.005,
			DropRate:     0.003,
			Seed:         int64(c.Seed) + 77,
		}
	}
}

// Study is the top-level reproduction harness.
type Study struct {
	Cfg      Config
	Universe *netsim.Universe

	mu           sync.Mutex
	camp         *campaign
	dynResult    *dynamicity.Result
	leakResult   *privleak.Result
	supplemental *reactive.Results
}

// NewStudy builds the universe and returns a study ready to run
// experiments.
func NewStudy(cfg Config) (*Study, error) {
	cfg.fillDefaults()
	u, err := netsim.BuildStudyUniverse(cfg.Universe)
	if err != nil {
		return nil, err
	}
	return &Study{Cfg: cfg, Universe: u}, nil
}

// windows are the dates of the timeline the study reads.
type windows struct {
	daily, weekly, dyn []time.Time
	// leak is the LAST days of the dynamicity window: its first days can
	// sit inside the winter break, when campuses are empty and academic
	// networks would be under-counted.
	leak []time.Time
}

func (c *Config) windows() windows {
	return windows{
		daily:  dataset.DateRange(c.OpenINTELStart, c.OpenINTELEnd, scan.Daily.IntervalDays()),
		weekly: dataset.DateRange(c.Rapid7Start, c.Rapid7End, scan.Weekly.IntervalDays()),
		dyn:    dataset.DateRange(c.DynamicityStart, c.DynamicityEnd, 1),
		leak:   dataset.DateRange(c.DynamicityEnd.AddDate(0, 0, 1-c.LeakWindowDays), c.DynamicityEnd, 1),
	}
}

// campaign is what the study's one longitudinal sweep leaves behind.
type campaign struct {
	windows
	// series counts the dynamic networks' records per /24 on every day
	// of the span; filler is never a row.
	series *dataset.CountSeries
	table1 Table1Result
	// dynSeries is the Section 4 series, filler included.
	dynSeries *dataset.CountSeries
	// union is the deduplicated union of the swept records over the leak
	// window; filler joins it when the Section 5 analysis runs.
	union []privleak.RecordObservation
}

// campaign runs (once) the study's one longitudinal sweep and its fold.
func (s *Study) campaign() *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.camp != nil {
		return s.camp
	}
	c := &campaign{windows: s.Cfg.windows()}
	const inDaily, inWeekly, inLeak = 1, 2, 4
	var first, last time.Time
	roles := make(map[int64]uint8)
	for role, dates := range map[uint8][]time.Time{inDaily: c.daily, inWeekly: c.weekly, 0: c.dyn, inLeak: c.leak} {
		for _, d := range dates {
			roles[d.Unix()] |= role
			if first.IsZero() || d.Before(first) {
				first = d
			}
			if d.After(last) {
				last = d
			}
		}
	}
	daily := dataset.NewStatsCollector(scan.Daily.String())
	weekly := dataset.NewStatsCollector(scan.Weekly.String())
	seen := make(map[uint64]bool)
	res := scan.Run(scan.Campaign{
		Universe:   s.Universe,
		Start:      first,
		End:        last,
		Cadence:    scan.Daily,
		SkipFiller: true,
		Telemetry:  s.Cfg.Telemetry,
		Observer:   s.Cfg.Observer,
		OnSnapshot: func(_ int, d time.Time, blocks scanengine.Blocks) {
			role := roles[d.Unix()]
			if role == 0 {
				return
			}
			for _, b := range blocks {
				ip := b.Prefix.Addr
				for _, e := range b.Entries {
					ip[3] = e.Octet
					if role&inDaily != 0 {
						daily.Observe(d, ip, e.Name)
					}
					if role&inWeekly != 0 {
						weekly.Observe(d, ip, e.Name)
					}
					if role&inLeak == 0 {
						continue
					}
					if key := recordKey(ip, e.Name); !seen[key] {
						seen[key] = true
						c.union = append(c.union, privleak.RecordObservation{IP: ip, HostName: e.Name})
					}
				}
			}
		},
	})
	// Filler joins the statistics after the sweep: the collectors' sets
	// stay small, and cheap to probe, while the swept records go in.
	scan.FoldFiller(s.Universe, c.daily, daily, nil, nil)
	scan.FoldFiller(s.Universe, c.weekly, weekly, nil, nil)
	c.table1 = Table1Result{Rapid7: weekly.Stats(), OpenINTEL: daily.Stats()}
	c.table1.Rapid7.Start, c.table1.Rapid7.End = s.Cfg.Rapid7Start, s.Cfg.Rapid7End
	c.table1.OpenINTEL.Start, c.table1.OpenINTEL.End = s.Cfg.OpenINTELStart, s.Cfg.OpenINTELEnd
	c.series = res.Series
	c.dynSeries = res.Series.Cut(c.dyn)
	scan.FoldFiller(s.Universe, c.dyn, nil, c.dynSeries, nil)
	s.camp = c
	return c
}

// DynamicitySeries returns the whole-universe daily count series of the
// Section 4 window.
func (s *Study) DynamicitySeries() *dataset.CountSeries {
	return s.campaign().dynSeries
}

// Series returns the dynamic networks' per-/24 count series on one
// platform's dates: every day of the OpenINTEL window, or the Rapid7 weekly
// grid. Only /24s holding a record on one of those dates are rows, and
// filler never is. A network's series is casestudy.EntrySeries over its
// announced prefix.
func (s *Study) Series(cadence scan.Cadence) *dataset.CountSeries {
	c := s.campaign()
	if cadence == scan.Weekly {
		return c.series.Cut(c.weekly)
	}
	return c.series.Cut(c.daily)
}

// Dynamicity returns (cached) the Section 4 heuristic result.
func (s *Study) Dynamicity() *dynamicity.Result {
	series := s.DynamicitySeries()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dynResult == nil {
		s.dynResult = dynamicity.Analyze(series, dynamicity.PaperConfig())
	}
	return s.dynResult
}

// AnnouncedPrefixes returns the simulated routing table: one announced
// prefix per network plus each filler /24.
func (s *Study) AnnouncedPrefixes() []dnswire.Prefix {
	var out []dnswire.Prefix
	for _, n := range s.Universe.Networks {
		out = append(out, n.Config().Announced)
	}
	for _, f := range s.Universe.Filler {
		out = append(out, f.Prefix)
	}
	return out
}

// PrivLeak returns (cached) the Section 5 identification result, computed
// over the union of the last LeakWindowDays daily snapshots of the
// dynamicity window with the scaled thresholds.
func (s *Study) PrivLeak() *privleak.Result {
	dyn := s.Dynamicity()
	c := s.campaign()
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
	for _, r := range c.union {
		r.Dynamic = dynSet[r.IP.Slash24()]
		a.Observe(r)
	}
	scan.FoldFiller(s.Universe, c.leak, nil, nil, func(r netsim.Record) {
		a.Observe(privleak.RecordObservation{IP: r.IP, HostName: r.HostName, Dynamic: dynSet[r.IP.Slash24()]})
	})
	s.leakResult = a.Finish()
	return s.leakResult
}

// recordKey hashes an (ip, hostname) pair for dedup.
func recordKey(ip dnswire.IPv4, name dnswire.Name) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(ip.Uint32())
	h *= prime
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// SupplementalTargets derives each supplemental network's targeted address
// space: its CarryOver dynamic blocks, the "subnet[s] containing the most
// dynamically assigned hosts" (Section 6.1).
func (s *Study) SupplementalTargets() []reactive.Target {
	var targets []reactive.Target
	for _, name := range netsim.SupplementalNames() {
		n, ok := s.Universe.NetworkByName(name)
		if !ok {
			continue
		}
		var prefixes []dnswire.Prefix
		for _, b := range n.Config().Blocks {
			if b.Kind == netsim.BlockDynamic && b.Policy == ipam.PolicyCarryOver {
				prefixes = append(prefixes, b.Prefix.Slash24s()...)
			}
		}
		targets = append(targets, reactive.Target{
			Name:     name,
			Prefixes: prefixes,
			DNS:      n.DNSAddr(),
		})
	}
	return targets
}

// Supplemental returns (cached) the Section 6 supplemental measurement
// results: the nine networks run live (packet-level DHCP, DNS and ICMP) on
// a simulated clock across the supplemental window while the reactive
// engine measures them from outside.
func (s *Study) Supplemental() *reactive.Results {
	s.mu.Lock()
	if s.supplemental != nil {
		defer s.mu.Unlock()
		return s.supplemental
	}
	s.mu.Unlock()

	res, _, _ := s.runSupplemental()
	s.mu.Lock()
	s.supplemental = res
	s.mu.Unlock()
	return res
}

// runSupplemental wires and runs the supplemental measurement once,
// returning the engine's results with the fabric's and the prober's own
// traffic counters.
func (s *Study) runSupplemental() (*reactive.Results, fabric.Stats, icmp.ProberStats) {
	clock := simclock.NewSimulated(s.Cfg.SupplementalStart)
	fab := fabric.New(clock, fabric.Config{
		Latency: 20 * time.Millisecond,
		Jitter:  10 * time.Millisecond,
		Seed:    int64(s.Cfg.Seed) + 5,
	})
	fab.SetTracer(s.Cfg.Tracer)
	var started []*netsim.Network
	for _, name := range netsim.SupplementalNames() {
		n, ok := s.Universe.NetworkByName(name)
		if !ok {
			continue
		}
		// Live mode builds fresh zone state; the network's presence
		// model is pure, so snapshot evaluation stays valid
		// afterwards.
		n.SetDNSFailure(s.Cfg.DNSFailure)
		n.SetDNSTracer(s.Cfg.Tracer)
		if err := n.Start(fab); err != nil {
			continue
		}
		started = append(started, n)
	}
	engine, err := reactive.NewEngine(fab, reactive.Config{
		Targets:     s.SupplementalTargets(),
		VantageICMP: dnswire.MustIPv4("198.51.100.10"),
		VantageDNS:  dnswire.MustIPv4("198.51.100.11"),
		DNSRetries:  1,
		Telemetry:   s.Cfg.Telemetry,
		Tracer:      s.Cfg.Tracer,
		TracerSeed:  int64(s.Cfg.Seed),
	})
	if err != nil {
		for _, n := range started {
			n.Stop()
		}
		return &reactive.Results{}, fabric.Stats{}, icmp.ProberStats{}
	}
	engine.Start()
	clock.AdvanceTo(s.Cfg.SupplementalEnd)
	engine.Stop()
	for _, n := range started {
		n.Stop()
	}
	return engine.Results(), fab.Stats(), engine.ProberStats()
}
