// Package core orchestrates the complete reproduction study: it owns the
// simulated universe, runs the longitudinal scanning campaigns
// (OpenINTEL-like daily, Rapid7-like weekly), the Section 4 dynamicity
// analysis, the Section 5 privacy-leak identification, and the Section 6
// supplemental (ICMP + reactive rDNS) measurement, and exposes one method
// per table and figure of the paper's evaluation.
//
// Everything is lazy and cached: experiments share the expensive campaign
// results, and a Study at reduced scale runs in seconds for tests and
// benchmarks while the default scale reproduces the full evaluation.
package core

import (
	"context"
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

	// Rapid7Start/End delimit the weekly campaign (paper: 2019-10-01 to
	// 2021-01-01).
	Rapid7Start, Rapid7End time.Time
	// OpenINTELStart/End delimit the daily campaign (paper: 2020-02-17
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

	// Telemetry, when set, receives engine metrics from every campaign
	// the study runs. Nil keeps the engines on their zero-overhead path.
	Telemetry telemetry.Sink
	// Observer, when set, captures one obs.Frame per campaign snapshot
	// across the study's longitudinal runs (see docs/observability.md).
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
	dynSeries    *dataset.CountSeries
	dynResult    *dynamicity.Result
	leakResult   *privleak.Result
	supplemental *reactive.Results
	dailyAll     *scan.Result
	weeklyAll    *scan.Result
	perNetDaily  map[string]*scan.Result
	perNetWeekly map[string]*scan.Result
}

// NewStudy builds the universe and returns a study ready to run
// experiments.
func NewStudy(cfg Config) (*Study, error) {
	cfg.fillDefaults()
	u, err := netsim.BuildStudyUniverse(cfg.Universe)
	if err != nil {
		return nil, err
	}
	return &Study{
		Cfg:          cfg,
		Universe:     u,
		perNetDaily:  make(map[string]*scan.Result),
		perNetWeekly: make(map[string]*scan.Result),
	}, nil
}

// DynamicitySeries returns (cached) the 90-day whole-universe daily count
// series of the Section 4 window.
func (s *Study) DynamicitySeries() *dataset.CountSeries {
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
// over a union of LeakWindowDays daily snapshots with the scaled
// thresholds.
func (s *Study) PrivLeak() *privleak.Result {
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

// DailyCampaign returns (cached) the full-universe OpenINTEL-like campaign.
// This is the heaviest longitudinal computation of the study.
func (s *Study) DailyCampaign() *scan.Result {
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
func (s *Study) WeeklyCampaign() *scan.Result {
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

// NetworkDaily returns (cached) a network-restricted daily campaign over
// the OpenINTEL window (used by Figures 9 and 10 — far cheaper than the
// whole-universe campaign).
func (s *Study) NetworkDaily(name string) *scan.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.perNetDaily[name]; ok {
		return r
	}
	r := scan.Run(scan.Campaign{
		Universe: s.Universe,
		Start:    s.Cfg.OpenINTELStart,
		End:      s.Cfg.OpenINTELEnd,
		Cadence:  scan.Daily,
		Networks: []string{name},
	})
	s.perNetDaily[name] = r
	return r
}

// NetworkWeekly returns (cached) a network-restricted weekly campaign over
// the Rapid7 window.
func (s *Study) NetworkWeekly(name string) *scan.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.perNetWeekly[name]; ok {
		return r
	}
	r := scan.Run(scan.Campaign{
		Universe: s.Universe,
		Start:    s.Cfg.Rapid7Start,
		End:      s.Cfg.Rapid7End,
		Cadence:  scan.Weekly,
		Networks: []string{name},
	})
	s.perNetWeekly[name] = r
	return r
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
