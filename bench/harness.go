package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
)

// sizes fixes how much data each workload runs on. They are constants of
// the benchmark, not knobs: the reference values below are what every
// reported number means, and only the tests build smaller ones.
type sizes struct {
	Universe netsim.UniverseConfig

	IngestBatchDays int // days per scan.Run call in campaign-ingest
	CompactEvery    int // campaign compaction cadence, in snapshots
	SweepChunks     int // target groups a sweep round is split into
	ServeDays       int // history behind the serve-* daemons
	HotIPs, HotDays int // serve-point-hot working set
	FleetPreload    int // days in the primary before fleet-live starts
	FleetAppendGap  time.Duration
	FleetRate       int // open-loop requests per second across both daemons
	LiveCheckHours  int // simulated hours the live-reactive gate replays
}

// referenceSizes is the small-scale universe of cmd/experiments: 76
// dynamic networks, 206 848 addresses, about 11-14 k PTRs a day.
var referenceSizes = sizes{
	Universe: netsim.UniverseConfig{
		FillerSlash24s:        6000,
		LeakyNetworks:         60,
		NonLeakyDynamic:       16,
		PeoplePerDynamicBlock: 30,
	},
	IngestBatchDays: 20,
	CompactEvery:    10,
	SweepChunks:     8,
	ServeDays:       120,
	HotIPs:          64,
	HotDays:         8,
	FleetPreload:    87,
	FleetAppendGap:  time.Second,
	FleetRate:       400,
	LiveCheckHours:  24,
}

// campaignStart is day 0 of every store-building campaign; liveStart is
// the Monday the supplemental (Section 6) run begins on.
var (
	campaignStart = time.Date(2021, time.January, 4, 0, 0, 0, 0, time.UTC)
	liveStart     = time.Date(2021, time.November, 8, 0, 0, 0, 0, time.UTC)
)

const snapshotTimeOfDay = 13 * time.Hour // scan.Campaign's default

func dayAt(n int) time.Time { return campaignStart.AddDate(0, 0, n).Add(snapshotTimeOfDay) }

// env is one run's configuration.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	nproc   int
	dir     string // scratch directory for stores; removed when the run ends
	outDir  string // where trace-<workload>.jsonl goes
	sz      sizes
}

// scratch returns a fresh directory path under the run's scratch area.
func (e *env) scratch(name string) string {
	p := filepath.Join(e.dir, name)
	os.RemoveAll(p)
	return p
}

func (e *env) universe() (*netsim.Universe, error) {
	cfg := e.sz.Universe
	cfg.Seed = e.seed
	return netsim.BuildStudyUniverse(cfg)
}

// phases splits the measured time. An untraced run spends all of it on
// the production configuration. A traced run halves that, then runs the
// harness's single-worker loop twice more — recorder off, recorder on —
// so trace overhead compares like with like.
func (e *env) phases() (prod, single, traced time.Duration) {
	if !e.trace {
		return e.seconds, 0, 0
	}
	return e.seconds / 2, e.seconds / 4, e.seconds / 4
}

// runtimeMark snapshots the Go runtime's counters at a phase boundary.
type runtimeMark struct{ ms runtime.MemStats }

func markRuntime() *runtimeMark {
	m := &runtimeMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

// since returns mallocs and bytes allocated since the mark.
func (m *runtimeMark) since() (mallocs, bytes uint64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.Mallocs - m.ms.Mallocs, now.TotalAlloc - m.ms.TotalAlloc
}

// report sets the runtime.* metrics for the interval since the mark.
func (m *runtimeMark) report(r *result) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	cycles := int(now.NumGC - m.ms.NumGC)
	r.set("runtime.gc_pause_ms", float64(now.PauseTotalNs-m.ms.PauseTotalNs)/1e6, cycles)
	r.set("runtime.gc_cycles", float64(cycles), 1)
	r.set("runtime.alloc_mb", float64(now.TotalAlloc-m.ms.TotalAlloc)/(1<<20), 1)
}

// peakRSSMB is getrusage's max resident set of this process (Linux
// reports kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// reportOps sets the figures every workload shares: the end-to-end
// work_per_s from its throughput (over workN units of work), and the
// bench.op_* rows from its per-operation wall times (in microseconds). It
// sorts opUS in place and returns the summary.
func reportOps(r *result, alias string, workPerS float64, workN int, opUS []float64) timing {
	t := summarize(opUS)
	r.set("work_per_s", workPerS, workN)
	r.set("bench.op_p50_us", t.P50, t.N)
	r.set("bench.op_tail_us", t.Tail, t.N)
	r.set("bench.op_tail_pct", t.TailPct, t.N)
	r.set("bench.op_samples", float64(t.N), 1)
	r.set(alias, workPerS, workN)
	return t
}

// finish closes a run: process-wide figures and the error ratio.
func finish(r *result) {
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("bench.error_ratio", ratio(float64(r.Failed), float64(r.Attempted)), int(r.Attempted))
}

// traceReport closes the traced phase: it writes the spans, keeps the
// budget table, and reports how the rows add up and what recording cost.
// rateOff and rateOn are the work rates of the single-worker phases with
// the recorder off and on.
func traceReport(e *env, r *result, rec *recorder, root int32, rateOff, rateOn float64) {
	rec.end(root)
	totals := rec.selfTimes()
	wall := rec.spans[root].end - rec.spans[root].start
	var sum int64
	for _, t := range totals {
		sum += t.Self
	}
	r.Budget, r.TracedNS = totals, wall
	r.set("bench.budget_sum_pct", 100*ratio(float64(sum), float64(wall)), len(rec.spans))
	r.set("bench.trace_overhead_pct", 100*ratio(rateOff-rateOn, rateOff), 1)
	path := filepath.Join(e.outDir, "trace-"+r.Workload+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		r.notef("trace not written: %v", err)
	} else {
		r.notef("%d spans written to %s", len(rec.spans), path)
	}
}

// digestRecords hashes a record set independent of map order: FNV-1a over
// (address, name) pairs in address order.
func digestRecords(recs scanengine.RecordSet) uint64 {
	ips := make([]dnswire.IPv4, 0, len(recs))
	for ip := range recs {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Uint32() < ips[j].Uint32() })
	h := fnv.New64a()
	var b [4]byte
	for _, ip := range ips {
		binary.BigEndian.PutUint32(b[:], ip.Uint32())
		h.Write(b[:])
		h.Write([]byte(recs[ip]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// storeDay reads one snapshot back out of a store as a record set, block
// by block through Range — the path a consumer of the history takes.
func storeDay(st *histstore.Store, at time.Time) (scanengine.RecordSet, error) {
	out := make(scanengine.RecordSet)
	for _, p := range st.Blocks() {
		rows, err := st.Range(p, at, at)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			out[row.IP] = row.PTR
		}
	}
	return out, nil
}

// dynamicCampaign is the campaign shape every store in the benchmark is
// built from: the dynamic networks only, daily, compacted as it goes.
func (e *env) dynamicCampaign(u *netsim.Universe, st *histstore.Store, firstDay, days int) scan.Campaign {
	return scan.Campaign{
		Universe:     u,
		Start:        campaignStart.AddDate(0, 0, firstDay),
		End:          campaignStart.AddDate(0, 0, firstDay+days-1),
		Cadence:      scan.Daily,
		SkipFiller:   true,
		Workers:      e.nproc,
		Store:        st,
		CompactEvery: e.sz.CompactEvery,
	}
}

// snapshotDay evaluates the dynamic networks' records on one campaign day
// through the engine's bulk path.
func (e *env) snapshotDay(u *netsim.Universe, day int) (scanengine.RecordSet, error) {
	snap, err := scan.Snapshot(context.Background(), scan.Campaign{Universe: u, SkipFiller: true, Workers: e.nproc}, dayAt(day))
	if err != nil {
		return nil, err
	}
	return snap.Records, nil
}

// buildStore runs a days-long campaign into a fresh store at dir, the way
// cmd/rdnsscan -store writes one (no WithSync; manifest and segment
// commits still fsync), and closes the writer.
func (e *env) buildStore(u *netsim.Universe, dir string, days int) (records int, err error) {
	st, err := histstore.Open(dir)
	if err != nil {
		return 0, err
	}
	res := scan.Run(e.dynamicCampaign(u, st, 0, days))
	if res.StoreErr != nil {
		st.Close()
		return 0, res.StoreErr
	}
	if st.Len() != days {
		st.Close()
		return 0, fmt.Errorf("store holds %d snapshots, want %d", st.Len(), days)
	}
	return int(res.Stats.TotalResponses), st.Close()
}
