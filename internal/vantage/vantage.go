// Package vantage runs multi-vantage scan campaigns: N named vantage
// points sweep the same simulated universe concurrently, each through
// its own seeded fault profile, and each appends to a history store of
// its own (StoreDir/<vantage>; see docs/campaigns.md). Read back side by
// side, the vantages' archives disagree exactly where the measurement
// paths differed — and the disagreement analyzer (analyze.go) classifies
// that divergence per /24 per day and scores how well each PTR change is
// corroborated across vantages.
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
	"path/filepath"
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

// Vantage is one measurement vantage point: a name (its store's
// directory and writer identity), a fault seed, and the path conditions
// between it and the universe under measurement.
type Vantage struct {
	// Name names the vantage's store, StoreDir/<Name>, and is its writer
	// id (1..64 bytes of [a-z0-9_-], same rule as histstore.WithWriter).
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
	// Attempts is how many lookups the vantage's lens makes per record.
	// Each attempt re-rolls the injected faults deterministically (a drop
	// on attempt 0 may pass on attempt 1 — scan-level retries really do
	// recover records). Below 1 means one attempt.
	Attempts int
	// LagRate is the fraction of addresses whose answer this vantage
	// serves from a stale view — a slow secondary, a caching resolver —
	// chosen per (seed, address, day). LagDays is how stale (min 1 when
	// LagRate > 0).
	LagRate float64
	LagDays int
}

// Campaign is a multi-vantage longitudinal scan of a whole universe,
// filler included: the vantage set and the directory their stores live
// in. All vantages snapshot the same instant of each date.
type Campaign struct {
	// Universe is the address space under measurement.
	Universe *netsim.Universe
	// Start and End delimit the campaign (inclusive).
	Start, End time.Time
	// Cadence selects daily or weekly snapshots.
	Cadence scan.Cadence
	// Workers bounds each vantage's snapshot engine pool.
	Workers int
	// Vantages are the vantage points; at least one, names unique.
	Vantages []Vantage
	// StoreDir holds one history store per vantage, StoreDir/<Name>,
	// each written by its vantage alone; the analyzer reads them side by
	// side.
	StoreDir string
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
	// Err is the vantage's first store failure (append or compaction), or
	// the cancellation that cut its campaign short; nil when every date
	// was swept and persisted.
	Err error
}

// Result is the product of a multi-vantage campaign.
type Result struct {
	// Dates are the campaign's snapshot dates.
	Dates []time.Time
	// Vantages holds one run record per vantage, in campaign order.
	Vantages []VantageRun
	// Report is the disagreement analysis over the vantages' stores.
	Report *Report
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
	if v.Attempts < 1 {
		return 1
	}
	return v.Attempts
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

// Run executes the campaign: one goroutine per vantage runs it as one
// scan.RunContext over the vantage's fault lens, appending each date to
// the vantage's own store while it sweeps the next; then the stores are
// reopened read-only and analyzed side by side. A cancelled ctx stops
// every vantage before its next append, and Run returns the cancellation.
func Run(ctx context.Context, c Campaign) (*Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	met := newMetrics(c.Telemetry)
	dates := dataset.DateRange(c.Start, c.End, c.Cadence.IntervalDays())
	res := &Result{Dates: dates, Vantages: make([]VantageRun, len(c.Vantages))}

	writers := make([]*histstore.Store, len(c.Vantages))
	for i, v := range c.Vantages {
		st, err := histstore.Open(c.storeDir(v), histstore.WithWriter(v.Name))
		if err != nil {
			closeAll(writers[:i])
			return nil, fmt.Errorf("vantage %q: %w", v.Name, err)
		}
		writers[i] = st
	}
	var wg sync.WaitGroup
	for i := range c.Vantages {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			c.runVantage(ctx, &c.Vantages[vi], writers[vi], &res.Vantages[vi], met)
		}(i)
	}
	wg.Wait()
	if err := closeAll(writers); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Each store is read back as rdnsd would serve it: opened afresh,
	// read-only.
	stores := make(map[string]*histstore.Store, len(c.Vantages))
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	for _, v := range c.Vantages {
		st, err := histstore.Open(c.storeDir(v), histstore.WithReadOnly())
		if err != nil {
			return res, fmt.Errorf("vantage %q: %w", v.Name, err)
		}
		stores[v.Name] = st
	}
	report, err := Analyze(stores, Config{LagWindow: c.lagWindow()})
	if err != nil {
		return res, err
	}
	res.Report = report
	met.observeReport(report)
	c.captureFrames(stores, res)
	return res, nil
}

// storeDir is vantage v's store directory.
func (c *Campaign) storeDir(v Vantage) string { return filepath.Join(c.StoreDir, v.Name) }

// closeAll closes every store, returning the first error.
func closeAll(stores []*histstore.Store) error {
	var first error
	for _, st := range stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runVantage runs one vantage as a scan campaign over its fault lens,
// appending to the vantage's own store handle.
func (c *Campaign) runVantage(ctx context.Context, v *Vantage, st *histstore.Store, out *VantageRun, met *metrics) {
	out.Name = v.Name
	stored := st.Len()
	res, err := scan.RunContext(ctx, scan.Campaign{
		Start:        c.Start,
		End:          c.End,
		Cadence:      c.Cadence,
		Source:       newLens(scan.NewSource(scan.Campaign{Universe: c.Universe}), v, met),
		Workers:      c.Workers,
		Telemetry:    c.Telemetry,
		Store:        st,
		CompactEvery: c.CompactEvery,
		OnSnapshot: func(_ int, _ time.Time, snap *scanengine.Snapshot) {
			out.Days = append(out.Days, snap.Stats)
			met.sweeps.Inc()
			n := st.Len()
			met.appends.Add(uint64(n - stored))
			stored = n
		},
	})
	out.Err = res.StoreErr
	if err != nil {
		out.Err = err
	}
}

// captureFrames emits one obs frame per campaign day, post-run: engine
// tallies summed across vantages, the reference view's size and churn,
// the vantages' stores, and the day's disagreement stats. Frames are
// captured after every sweep completed, so counter deltas land on the
// first frame and the digests are schedule-independent.
func (c *Campaign) captureFrames(stores map[string]*histstore.Store, res *Result) {
	if c.Observer == nil || res.Report == nil {
		return
	}
	c.Observer.SetStoreStats(func() obs.StoreStats { return storeStats(stores) })
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

// storeStats is a frame's store line for the campaign: the vantages'
// stores summed, except Blocks, which counts the /24s any of them
// indexes once.
func storeStats(stores map[string]*histstore.Store) obs.StoreStats {
	var sum obs.StoreStats
	for _, st := range stores {
		s := scan.StoreStats(st)
		sum.Snapshots += s.Snapshots
		sum.BaseFrames += s.BaseFrames
		sum.DeltaFrames += s.DeltaFrames
		sum.Bytes += s.Bytes
		sum.Segments += s.Segments
		sum.SealedBytes += s.SealedBytes
		sum.Writers += s.Writers
		sum.Compactions += s.Compactions
		sum.SealedSnapshots += s.SealedSnapshots
		sum.ReclaimedBytes += s.ReclaimedBytes
	}
	sum.Blocks = len(unionBlocks(stores))
	return sum
}
