// Package scan implements the longitudinal snapshot engine that stands in
// for the OpenINTEL and Rapid7 measurement platforms (Section 3): it sweeps
// the simulated universe's reverse DNS on a daily (OpenINTEL-like) or
// weekly (Rapid7-like) cadence and produces the per-/24 count series and
// summary statistics the paper's analyses consume.
//
// Campaigns sweep through internal/scanengine over a ShardSource that
// evaluates network record state directly (netsim.Network.RecordsAt); that
// is what makes two-year daily campaigns over tens of thousands of /24s
// tractable. One PTR query per address through a real resolver
// (dnsclient.Resolver.LookupPTR over the fabric) is what the measurement
// platforms do and what internal/reactive uses for the supplemental windows;
// both derive hostnames from internal/ipam, and TestWireAndFastPathsAgree
// pins that they see the same records.
//
// RunContext is the one campaign loop (Run is RunContext under a
// background context). By default it sweeps the universe's dynamic
// networks and folds the never-changing filler unswept; Campaign.Source
// brings a source with its own coverage instead — internal/vantage runs
// each vantage point as one RunContext over its fault lens.
package scan

import (
	"context"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// Cadence is a snapshot frequency.
type Cadence int

// Cadences of the two platforms.
const (
	// Daily matches OpenINTEL.
	Daily Cadence = iota
	// Weekly matches Rapid7 Sonar.
	Weekly
)

// IntervalDays returns the day step of the cadence.
func (c Cadence) IntervalDays() int {
	if c == Weekly {
		return 7
	}
	return 1
}

// String names the platform the cadence models.
func (c Cadence) String() string {
	if c == Weekly {
		return "rapid7-weekly"
	}
	return "openintel-daily"
}

// Campaign describes a longitudinal scan.
type Campaign struct {
	// Universe is the address space under measurement.
	Universe *netsim.Universe
	// Start and End delimit the campaign (inclusive).
	Start, End time.Time
	// Cadence selects daily or weekly snapshots.
	Cadence Cadence
	// SkipFiller omits filler blocks (useful when only dynamic behaviour
	// matters).
	SkipFiller bool
	// Source, when set, is what every date sweeps, and its Targets are the
	// whole coverage: no source is built from Universe and no filler is
	// folded. Nil sweeps the universe's dynamic networks through NewSource
	// and folds its filler with FoldFiller.
	Source Source
	// Workers bounds the snapshot engine's worker pool. Zero means the
	// engine default (GOMAXPROCS).
	Workers int
	// Telemetry, when set, receives the snapshot engine's metrics
	// (the scan_* instruments; see docs/observability.md). Nil keeps the
	// engine on its zero-overhead path.
	Telemetry telemetry.Sink
	// Observer, when set, captures one obs.Frame per snapshot date —
	// the longitudinal health series docs/observability.md describes.
	// Nil skips capture entirely.
	Observer *obs.Recorder
	// Store, when set, receives every snapshot's record set as an append
	// to the longitudinal history store, making the campaign queryable by
	// cmd/rdnsd and the store-backed analyses. With an Observer attached
	// too, each frame carries the store's append/compaction state. Nil
	// skips persistence.
	Store *histstore.Store
	// CompactEvery, when > 0 with a Store attached, seals the store's
	// tail into a segment after every N appended snapshots, bounding the
	// tail a crash can tear and keeping reconstruction chains short over
	// long campaigns. Compaction failures surface in Result.StoreErr.
	CompactEvery int
	// OnSnapshot, when set, receives every stored and folded snapshot on
	// Run's consumer goroutine, in date order, after the built-in fold.
	// i is the date's index in the campaign. The hook must not retain or
	// modify the snapshot past the call.
	OnSnapshot func(i int, date time.Time, snap *scanengine.Snapshot)
}

// Source is what a campaign sweeps: a snapshot-engine source that knows
// its own coverage. *UniverseSource is one.
type Source interface {
	scanengine.Source
	Targets() []dnswire.Prefix
}

// timeOfDay is when each snapshot is taken, as an offset from midnight.
// OpenINTEL measures once a day; 13:00 is used here.
const timeOfDay = 13 * time.Hour

// Targets returns the campaign's sweep coverage, for scanengine.Request.
func (c *Campaign) Targets() []dnswire.Prefix {
	return NewSource(*c).Targets()
}

// engineOptions assembles the campaign's scanner options.
func (c *Campaign) engineOptions() []scanengine.Option {
	var opts []scanengine.Option
	if c.Workers > 0 {
		opts = append(opts, scanengine.WithWorkers(c.Workers))
	}
	if c.Telemetry != nil {
		opts = append(opts, scanengine.WithTelemetry(c.Telemetry))
	}
	return opts
}

// Result is the product of a campaign.
type Result struct {
	// Series is the per-/24 daily count series.
	Series *dataset.CountSeries
	// Stats summarizes the campaign.
	Stats dataset.Stats
	// StoreErr is the first history-store append failure, nil when every
	// snapshot persisted (or no store was attached). The sweep itself
	// continues past a store failure; persistence stops.
	StoreErr error
}

// pipelineDepth is how many swept snapshots may wait for the consumer
// stage. One lets the sweep of day D+1 run while day D is appended, and
// bounds the snapshots alive at once to three: one being swept, one
// waiting, one being consumed.
const pipelineDepth = 1

// sweptDay is one snapshot handed from the sweep to the consumer stage.
type sweptDay struct {
	i    int
	date time.Time
	snap *scanengine.Snapshot
}

// FoldFiller folds the universe's filler blocks into a window of snapshot
// dates without sweeping them: filler never changes, so each record is
// enumerated once. stats observes it on the window's first date and counts
// it again for every other date, each sees it once, and series gets one
// constant row per filler /24. Any of stats, series and each may be nil.
func FoldFiller(u *netsim.Universe, dates []time.Time, stats *dataset.StatsCollector, series *dataset.CountSeries, each func(netsim.Record)) {
	if len(dates) == 0 {
		return
	}
	for _, f := range u.Filler {
		if stats != nil || each != nil {
			f.Records(func(r netsim.Record) {
				if stats != nil {
					stats.Observe(dates[0], r.IP, r.HostName)
				}
				if each != nil {
					each(r)
				}
			})
		}
		if stats != nil {
			stats.ObserveRepeat(uint64((len(dates) - 1) * f.Count()))
		}
		if series != nil {
			series.SetConstant(f.Prefix, f.Count())
		}
	}
}

// Run is RunContext under a background context, which cannot cancel.
func Run(c Campaign) *Result {
	r, _ := RunContext(context.Background(), c)
	return r
}

// RunContext executes the campaign through the sharded snapshot engine
// and returns its result. It runs in two stages: the calling goroutine
// sweeps the dates in order, and one consumer goroutine takes each
// snapshot, in the same order, through the store append and compaction,
// the observer frame, the count-series and statistics fold and the
// OnSnapshot hook. It returns once the consumer has finished the last
// date.
//
// Once ctx is cancelled no further snapshot is stored or folded, not even
// one already swept in full: the store, the result and the hook all end on
// the same date. RunContext then returns the partial result with the
// cancellation error, after the consumer has drained.
func RunContext(ctx context.Context, c Campaign) (*Result, error) {
	dates := dataset.DateRange(c.Start, c.End, c.Cadence.IntervalDays())
	series := dataset.NewCountSeries(dates)
	collector := dataset.NewStatsCollector(c.Cadence.String())
	src := c.Source
	if src == nil {
		// Filler never changes: it is folded once, and only the dynamic
		// networks are re-swept at every date.
		if !c.SkipFiller {
			FoldFiller(c.Universe, dates, collector, series, nil)
		}
		netsOnly := c
		netsOnly.SkipFiller = true
		src = NewSource(netsOnly)
	}
	targets := src.Targets()
	sc := scanengine.New(src, c.engineOptions()...)
	if c.Store != nil {
		c.Observer.SetStoreStats(func() obs.StoreStats { return StoreStats(c.Store) })
	}

	// A frame digests the registry the engine counts into, so while one is
	// captured the next sweep must not be counting: with both attached,
	// the sweep of D+1 waits for frame D. The fold still overlaps it.
	var captured chan struct{}
	if c.Observer != nil && c.Telemetry != nil {
		captured = make(chan struct{})
	}
	swept := make(chan sweptDay, pipelineDepth)
	var storeErr, dropped error
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for d := range swept {
			if dropped = ctx.Err(); dropped != nil {
				if captured != nil {
					captured <- struct{}{}
				}
				continue
			}
			if c.Store != nil && storeErr == nil {
				storeErr = c.Store.AppendBlocks(d.snap.At, d.snap.Blocks)
				if storeErr == nil && c.CompactEvery > 0 && (d.i+1)%c.CompactEvery == 0 {
					_, storeErr = c.Store.Compact(ctx, histstore.CompactOptions{MinSeal: c.CompactEvery})
				}
			}
			c.Observer.CaptureFrame(d.i, d.date, d.snap)
			if captured != nil {
				captured <- struct{}{}
			}
			fold(collector, series, d)
			if c.OnSnapshot != nil {
				c.OnSnapshot(d.i, d.date, d.snap)
			}
		}
	}()
	var err error
	for i, d := range dates {
		var snap *scanengine.Snapshot
		if snap, err = sc.Sweep(ctx, scanengine.Request{Targets: targets, At: d.Add(timeOfDay)}); err != nil {
			break // a cancelled sweep is partial: it goes no further
		}
		swept <- sweptDay{i: i, date: d, snap: snap}
		if captured != nil {
			<-captured
		}
	}
	close(swept)
	<-consumed
	if err == nil {
		err = dropped
	}

	r := &Result{Series: series, Stats: collector.Stats(), StoreErr: storeErr}
	r.Stats.Start = c.Start
	r.Stats.End = c.End
	return r, err
}

// fold adds one swept day to the campaign's statistics and count series
// in O(blocks + changes): a count per /24, and to the distinct sets only
// the records the sweep's diff says are new or renamed — every other
// record the collector saw the day before. A sweep without a diff (the
// first of a run) folds every record.
func fold(collector *dataset.StatsCollector, series *dataset.CountSeries, d sweptDay) {
	n := 0
	for _, b := range d.snap.Blocks {
		series.Add(b.Prefix, d.i, len(b.Entries))
		n += len(b.Entries)
	}
	collector.ObserveDay(d.date, uint64(n))
	if d.snap.Changes != nil {
		for _, ch := range d.snap.Changes {
			if ch.Kind != scanengine.RecordRemoved {
				collector.See(ch.IP, ch.New)
			}
		}
		return
	}
	for _, b := range d.snap.Blocks {
		ip := b.Prefix.Addr
		for _, e := range b.Entries {
			ip[3] = e.Octet
			collector.See(ip, e.Name)
		}
	}
}

// StoreStats converts the store's summary to the obs-local mirror (obs
// does not import the storage layer). Every producer of frames over a
// store — this package, internal/vantage, cmd/rdnsscan — converts here.
func StoreStats(st *histstore.Store) obs.StoreStats {
	s := st.Stats()
	return obs.StoreStats{
		Snapshots:       s.Snapshots,
		Blocks:          s.Blocks,
		BaseFrames:      s.BaseFrames,
		DeltaFrames:     s.DeltaFrames,
		Bytes:           s.Bytes,
		Segments:        s.Segments,
		SealedBytes:     s.SealedBytes,
		Writers:         len(s.Writers),
		Compactions:     s.Compaction.Runs,
		SealedSnapshots: s.Compaction.SealedSnapshots,
		ReclaimedBytes:  s.Compaction.ReclaimedBytes,
	}
}

// Snapshot sweeps the campaign's coverage at one instant through the
// engine and returns the snapshot — the input of the Section 5
// privacy-leak analysis, which works on a single day's data. It is the
// one campaign sweep through Scanner.Scan, so its snapshot carries the
// map form (Records) that bench/ and the tests read addresses from.
func Snapshot(ctx context.Context, c Campaign, at time.Time) (*scanengine.Snapshot, error) {
	src := NewSource(c)
	sc := scanengine.New(src, c.engineOptions()...)
	return sc.Scan(ctx, scanengine.Request{Targets: src.Targets(), At: at})
}
