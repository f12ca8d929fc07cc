package main

import (
	"context"
	"fmt"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
)

// ingestFixture is campaign-ingest's set-up: the universe and an open
// writer on an empty store.
type ingestFixture struct {
	u     *netsim.Universe
	store *histstore.Store
}

// buildIngest builds the universe and opens the store, after a warm-up:
// two campaign days into a throwaway store, so the first timed batch does
// not pay for the engine's and the codec's first use.
func buildIngest(e *env) (ingestFixture, error) {
	u, err := e.universe()
	if err != nil {
		return ingestFixture{}, err
	}
	warm, err := histstore.Open(e.scratch("ingest-warm"))
	if err != nil {
		return ingestFixture{}, err
	}
	res := scan.Run(e.dynamicCampaign(u, warm, -2, 2))
	warm.Close()
	if res.StoreErr != nil {
		return ingestFixture{}, res.StoreErr
	}
	st, err := histstore.Open(e.scratch("ingest"))
	return ingestFixture{u: u, store: st}, err
}

// runIngest measures the write path: scan.Run sweeping the dynamic
// networks day after day into a store, compacting every CompactEvery
// snapshots. No wire codec, socket or HTTP code runs.
func runIngest(e *env, r *result) error {
	t0 := time.Now()
	fx, err := buildIngest(e)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds(), 1)
	defer fx.store.Close()
	prodFor, singleFor, tracedFor := e.phases()

	// Production phase: consecutive IngestBatchDays-day campaigns appended
	// to one growing store, as a long campaign resumed batch by batch.
	batch := e.sz.IngestBatchDays
	var perDayUS []float64
	var records uint64
	days := 0
	rt := markRuntime()
	begin := time.Now()
	for time.Since(begin) < prodFor {
		t0 := time.Now()
		res := scan.Run(e.dynamicCampaign(fx.u, fx.store, days, batch))
		d := time.Since(t0)
		r.Attempted += int64(batch)
		if res.StoreErr != nil {
			r.Failed += int64(batch)
			r.problemf("batch at day %d: %v", days, res.StoreErr)
			break
		}
		days += batch
		records += res.Stats.TotalResponses
		perDayUS = append(perDayUS, float64(d.Microseconds())/float64(batch))
	}
	elapsed := time.Since(begin)
	rt.report(r)
	reportOps(r, "bench.ingest_days_per_s", float64(days)/elapsed.Seconds(), days, perDayUS)
	stats := fx.store.Stats()
	r.set("bench.store_bytes_per_record", ratio(float64(stats.Bytes), float64(records)), int(records))

	// Gate: every day landed, and three fixed days read back through Range
	// equal what the harness evaluates for those days itself.
	if fx.store.Len() != days {
		r.problemf("store holds %d snapshots after %d campaign days", fx.store.Len(), days)
	}
	for _, day := range []int{1, days / 2, days - 1} {
		if day < 0 || day >= days {
			continue
		}
		want, err := e.snapshotDay(fx.u, day)
		if err != nil {
			return err
		}
		got, err := storeDay(fx.store, dayAt(day))
		if err != nil {
			return err
		}
		if g, w := digestRecords(got), digestRecords(want); g != w {
			r.Failed++
			r.problemf("day %d: store digest %016x != evaluated digest %016x (%d vs %d records)", day, g, w, len(got), len(want))
		}
	}

	if e.trace {
		if err := traceIngest(e, r, fx.u, stats, records, singleFor, tracedFor); err != nil {
			return err
		}
	}
	finish(r)
	return nil
}

// shardSpanSource wraps the campaign's source so each ScanShard call is a
// span; the engine still sees a ShardSource and keeps its bulk path.
type shardSpanSource struct {
	*scan.UniverseSource
	rec     *recorder
	op      uint16
	day     *uint32
	records *uint64
}

func (s shardSpanSource) ScanShard(ctx context.Context, shard dnswire.Prefix, at time.Time, emit func(scanengine.Result)) error {
	id := s.rec.begin(s.op, *s.day)
	err := s.UniverseSource.ScanShard(ctx, shard, at, func(res scanengine.Result) {
		*s.records++
		emit(res)
	})
	s.rec.end(id)
	return err
}

// ingestLoop is scan.Run's day loop re-wired by the harness so that the
// source, Scan, Append and CompactWriter can each be wrapped in a span:
// one worker, so spans nest. It leaves out scan.Run's count-series and
// Table 1 collectors, which the campaign-ingest budget therefore shows
// only as the difference between the production and single-worker rates.
func ingestLoop(e *env, u *netsim.Universe, dir string, rec *recorder, dur time.Duration) (days int, records uint64, compacts []histstore.CompactResult, wall time.Duration, err error) {
	st, err := histstore.Open(dir)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	defer st.Close()
	var day uint32
	src := shardSpanSource{
		UniverseSource: scan.NewSource(scan.Campaign{Universe: u, SkipFiller: true}),
		rec:            rec, op: rec.op("netsim.ScanShard"), day: &day, records: &records,
	}
	opScan, opAppend, opCompact := rec.op("scanengine.Scan"), rec.op("histstore.Append"), rec.op("histstore.CompactWriter")
	sc := scanengine.New(src, scanengine.WithWorkers(1))
	targets := src.Targets()
	ctx := context.Background()
	begin := time.Now()
	for time.Since(begin) < dur {
		at := dayAt(days)
		id := rec.begin(opScan, day)
		snap, err := sc.Scan(ctx, scanengine.Request{Targets: targets, At: at})
		rec.end(id)
		if err != nil {
			return days, records, compacts, time.Since(begin), err
		}
		id = rec.begin(opAppend, day)
		err = st.Append(at, snap.Records)
		rec.end(id)
		if err != nil {
			return days, records, compacts, time.Since(begin), err
		}
		days++
		day++
		if days%e.sz.CompactEvery == 0 {
			id = rec.begin(opCompact, day)
			res, err := st.CompactWriter(ctx, st.WriterID(), histstore.CompactOptions{MinSeal: e.sz.CompactEvery})
			rec.end(id)
			if err != nil {
				return days, records, compacts, time.Since(begin), err
			}
			compacts = append(compacts, res)
		}
	}
	return days, records, compacts, time.Since(begin), nil
}

func traceIngest(e *env, r *result, u *netsim.Universe, prod histstore.Stats, prodRecords uint64, singleFor, tracedFor time.Duration) error {
	offDays, _, _, offWall, err := ingestLoop(e, u, e.scratch("ingest-single"), nil, singleFor)
	if err != nil {
		return fmt.Errorf("single-worker loop: %w", err)
	}
	rec := newRecorder()
	root := rec.begin(rec.op("bench.workload"), 0)
	days, records, compacts, wall, err := ingestLoop(e, u, e.scratch("ingest-traced"), rec, tracedFor)
	if err != nil {
		return fmt.Errorf("traced loop: %w", err)
	}
	traceReport(e, r, rec, root, float64(offDays)/offWall.Seconds(), float64(days)/wall.Seconds())

	shard := findOp(r.Budget, "netsim.ScanShard")
	sweep := findOp(r.Budget, "scanengine.Scan")
	app := findOp(r.Budget, "histstore.Append")
	comp := findOp(r.Budget, "histstore.CompactWriter")
	r.set("netsim.enumerate_us_per_day", ratio(float64(shard.Total)/1e3, float64(days)), days)
	r.set("netsim.records_per_day", ratio(float64(records), float64(days)), days)
	r.set("scanengine.merge_self_us_per_day", ratio(float64(sweep.Self)/1e3, float64(days)), days)
	r.set("histstore.append_us_per_snapshot", ratio(float64(app.Total)/1e3, float64(app.Count)), app.Count)
	r.set("histstore.compact_ms_per_run", ratio(float64(comp.Total)/1e6, float64(comp.Count)), comp.Count)
	var rewritten int64
	for _, c := range compacts {
		rewritten += c.TailBytes
	}
	r.set("histstore.compact_rewritten_bytes", ratio(float64(rewritten), float64(len(compacts))), len(compacts))
	// Sealed bytes per record comes from the production store, where the
	// sealed share is every full compaction window.
	sealedShare := ratio(float64(prod.Compaction.SealedSnapshots), float64(prod.Snapshots))
	r.set("histstore.sealed_bytes_per_record", ratio(float64(prod.SealedBytes), float64(prodRecords)*sealedShare), int(prod.Compaction.SealedSnapshots))
	return nil
}
