// Package vantage runs multi-vantage scan campaigns: N named vantage
// points sweep the same simulated universe concurrently, each through
// its own seeded fault profile, and each appends to the shared history
// store under its own writer identity (per-writer tails; see
// docs/storage.md). Read back with provenance, the per-writer views
// disagree exactly where the measurement paths differed — and the
// disagreement analyzer (analyze.go) classifies that divergence per /24
// per day and scores how well each PTR change is corroborated across
// vantages.
//
// The paper's longitudinal measurements come from a single vantage
// point, which cannot distinguish real churn from measurement-path
// artifacts (loss, resolver lag, broken delegations along one path).
// Running the same universe through several fault lenses makes the
// distinction measurable: a transition every vantage sees within a small
// lag window is churn; one only a single lossy vantage sees is an
// artifact. Everything is deterministic — each vantage's faults are a
// pure function of (vantage seed, question name, day, attempt) via
// faultsim's hash construction, so replaying a campaign from its seeds
// reproduces stores, reports, and obs frames bit-identically.
package vantage

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// Vantage is one measurement vantage point: a name (its histstore writer
// identity), a fault seed, and the path conditions between it and the
// universe under measurement.
type Vantage struct {
	// Name is the vantage's writer id in the shared store (1..64 bytes
	// of [a-z0-9_-], same rule as histstore.WithWriter).
	Name string
	// Seed drives every fault decision this vantage makes. Two vantages
	// with equal profiles but different seeds miss different records —
	// which is the point.
	Seed int64
	// Faults are the per-prefix fault profiles along this vantage's
	// path. Only the hash-rate fields (Loss, ServFailRate, RefusedRate)
	// apply on the enumeration fast path; the most specific prefix
	// containing an address governs it.
	Faults []faultsim.Profile
	// Resilience is the vantage's scan resilience config. Its
	// Retry.MaxAttempts re-rolls injected faults deterministically (a
	// drop on attempt 0 may pass on attempt 1 — scan-level retries
	// really do recover records), and the whole config is handed to the
	// snapshot engine for wire-path sweeps. Nil means one attempt.
	Resilience *scanengine.ResilienceConfig
	// LagRate is the fraction of addresses whose answer this vantage
	// serves from a stale view — a slow secondary, a caching resolver —
	// chosen per (seed, address, day). LagDays is how stale (min 1 when
	// LagRate > 0).
	LagRate float64
	LagDays int
}

// Campaign is a multi-vantage longitudinal scan: scan.Campaign's
// coverage knobs plus the vantage set and the shared store directory.
type Campaign struct {
	// Universe is the address space under measurement.
	Universe *netsim.Universe
	// Start and End delimit the campaign (inclusive).
	Start, End time.Time
	// Cadence selects daily or weekly snapshots.
	Cadence scan.Cadence
	// TimeOfDay is when each snapshot is taken (default 13:00, matching
	// scan.Campaign). All vantages snapshot the same instant: the merged
	// timeline carries one entry per (day, vantage) at equal instants,
	// resolved deterministically by writer id.
	TimeOfDay time.Duration
	// Networks restricts the campaign to the named networks; SkipFiller
	// omits filler blocks in whole-universe scans.
	Networks   []string
	SkipFiller bool
	// Workers bounds each vantage's snapshot engine pool.
	Workers int
	// Vantages are the vantage points; at least one, names unique.
	Vantages []Vantage
	// StoreDir is the shared history store directory. Every vantage
	// appends under its own writer id; the analyzer reads the merged
	// store back with provenance.
	StoreDir string
	// StoreOptions are extra per-vantage store options (base interval,
	// cache size). Writer identity is set per vantage; do not pass
	// WithWriter here.
	StoreOptions []histstore.Option
	// CompactEvery, when > 0, seals each vantage's tail into a segment
	// after every N appends — the live-compaction regime the race
	// battery exercises.
	CompactEvery int
	// LagWindow is the analyzer's agreement window in snapshots (see
	// Config.LagWindow). Zero means the largest vantage LagDays, min 1.
	LagWindow int
	// Telemetry, when set, receives the vantage_* instruments plus every
	// engine's scan_* metrics. Nil keeps the zero-overhead path.
	Telemetry telemetry.Sink
	// Observer, when set, captures one obs.Frame per campaign day after
	// the run — sweep tallies summed across vantages, reference-view
	// churn, store stats, and the day's VantageStats — and is the input
	// to Rules.MinCorroboration. Nil skips capture.
	Observer *obs.Recorder
}

// VantageRun is one vantage's sweep outcome.
type VantageRun struct {
	// Name is the vantage.
	Name string
	// Days holds one engine tally per campaign date, in date order.
	Days []scanengine.Stats
	// Err is the vantage's first store failure (append or compaction);
	// nil when every snapshot persisted.
	Err error
}

// Result is the product of a multi-vantage campaign.
type Result struct {
	// Dates are the campaign's snapshot dates.
	Dates []time.Time
	// Vantages holds one run record per vantage, in campaign order.
	Vantages []VantageRun
	// Report is the disagreement analysis over the merged store.
	Report *Report
}

func (c *Campaign) timeOfDay() time.Duration {
	if c.TimeOfDay == 0 {
		return 13 * time.Hour
	}
	return c.TimeOfDay
}

func (c *Campaign) lagWindow() int {
	if c.LagWindow > 0 {
		return c.LagWindow
	}
	w := 1
	for _, v := range c.Vantages {
		if v.LagRate > 0 && v.lagDays() > w {
			w = v.lagDays()
		}
	}
	return w
}

func (v *Vantage) lagDays() int {
	if v.LagDays < 1 {
		return 1
	}
	return v.LagDays
}

func (v *Vantage) attempts() int {
	if v.Resilience == nil || v.Resilience.Retry.MaxAttempts < 1 {
		return 1
	}
	return v.Resilience.Retry.MaxAttempts
}

// validate rejects campaigns the orchestrator cannot run deterministically.
func (c *Campaign) validate() error {
	if c.Universe == nil {
		return fmt.Errorf("vantage: campaign needs a universe")
	}
	if c.StoreDir == "" {
		return fmt.Errorf("vantage: campaign needs a store directory")
	}
	if len(c.Vantages) == 0 {
		return fmt.Errorf("vantage: campaign needs at least one vantage")
	}
	seen := make(map[string]bool, len(c.Vantages))
	for _, v := range c.Vantages {
		if v.Name == "" {
			return fmt.Errorf("vantage: vantage needs a name")
		}
		if seen[v.Name] {
			return fmt.Errorf("vantage: duplicate vantage %q", v.Name)
		}
		seen[v.Name] = true
	}
	return nil
}

// Run executes the campaign: one goroutine per vantage sweeps every
// date through its fault lens and appends to the shared store under its
// writer id, then the merged store is reopened read-only and analyzed.
//
// Every vantage's store handle opens before any append starts — a
// store's append-monotonicity floor is the latest instant visible at its
// open, so a handle opened mid-campaign would reject the dates its
// siblings already wrote (see the multi-writer serving tests for the
// same pattern).
func Run(ctx context.Context, c Campaign) (*Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	met := newMetrics(c.Telemetry)
	dates := dataset.DateRange(c.Start, c.End, c.Cadence.IntervalDays())
	res := &Result{Dates: dates, Vantages: make([]VantageRun, len(c.Vantages))}

	stores := make([]*histstore.Store, len(c.Vantages))
	for i, v := range c.Vantages {
		opts := append([]histstore.Option{histstore.WithWriter(v.Name)}, c.StoreOptions...)
		st, err := histstore.Open(c.StoreDir, opts...)
		if err != nil {
			for _, open := range stores[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("vantage %q: %w", v.Name, err)
		}
		stores[i] = st
	}

	var wg sync.WaitGroup
	for i := range c.Vantages {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			c.runVantage(ctx, vi, stores[vi], dates, &res.Vantages[vi], met)
		}(i)
	}
	wg.Wait()
	var closeErr error
	for _, st := range stores {
		if err := st.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	if closeErr != nil {
		return res, closeErr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	ro, err := histstore.Open(c.StoreDir, histstore.WithReadOnly(), histstore.WithCache(4096))
	if err != nil {
		return res, err
	}
	defer ro.Close()
	report, err := Analyze(ro, Config{LagWindow: c.lagWindow()})
	if err != nil {
		return res, err
	}
	res.Report = report
	met.observeReport(report)
	c.captureFrames(ro, res)
	return res, nil
}

// runVantage sweeps every date through one vantage's lens.
func (c *Campaign) runVantage(ctx context.Context, vi int, st *histstore.Store, dates []time.Time, out *VantageRun, met *metrics) {
	v := c.Vantages[vi]
	out.Name = v.Name
	base := scan.Campaign{
		Universe:   c.Universe,
		Networks:   c.Networks,
		SkipFiller: c.SkipFiller,
	}
	lens := newLens(scan.NewSource(base), &v, met)
	opts := []scanengine.Option{}
	if c.Workers > 0 {
		opts = append(opts, scanengine.WithWorkers(c.Workers))
	}
	if c.Telemetry != nil {
		opts = append(opts, scanengine.WithTelemetry(c.Telemetry))
	}
	if v.Resilience != nil {
		opts = append(opts, scanengine.WithResilience(*v.Resilience))
	}
	sc := scanengine.New(lens, opts...)
	targets := lens.Targets()
	for i, d := range dates {
		at := d.Add(c.timeOfDay())
		snap, err := sc.Scan(ctx, scanengine.Request{Targets: targets, At: at})
		if err != nil {
			out.Err = err
			return
		}
		out.Days = append(out.Days, snap.Stats)
		met.sweeps.Inc()
		if out.Err == nil {
			if out.Err = st.Append(at, snap.Records); out.Err == nil {
				met.appends.Inc()
				if c.CompactEvery > 0 && (i+1)%c.CompactEvery == 0 {
					_, out.Err = st.CompactWriter(ctx, v.Name, histstore.CompactOptions{MinSeal: c.CompactEvery})
				}
			}
		}
	}
}

// captureFrames emits one obs frame per campaign day, post-run: engine
// tallies summed across vantages, the reference view's size and churn,
// the shared store's state, and the day's disagreement stats. Frames are
// captured after every sweep completed, so counter deltas land on the
// first frame and the digests are schedule-independent.
func (c *Campaign) captureFrames(ro *histstore.Store, res *Result) {
	if c.Observer == nil || res.Report == nil {
		return
	}
	c.Observer.SetStoreStats(func() obs.StoreStats { return scan.StoreStats(ro) })
	defer c.Observer.SetStoreStats(nil)
	for i, day := range res.Report.Days {
		f := obs.Frame{Index: i, Date: day.Date}
		var stats scanengine.Stats
		for _, vr := range res.Vantages {
			if i < len(vr.Days) {
				stats.Add(vr.Days[i])
			}
		}
		f.SetStats(stats)
		f.Records = day.Addresses
		f.Added, f.Removed, f.Changed = day.Added, day.Removed, day.Changed
		vs := day.Stats(len(res.Report.Vantages))
		f.Vantage = &vs
		c.Observer.Capture(f)
	}
}
