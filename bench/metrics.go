package main

import (
	"fmt"
	"sort"
)

// Workload names. Each is one process run; README.md gives the reasons.
const (
	wIngest    = "campaign-ingest"
	wSweepWire = "sweep-wire"
	wSweepUDP  = "sweep-udp"
	wLive      = "live-reactive"
	wServeHot  = "serve-point-hot"
	wServeCold = "serve-scan-cold"
	wFleet     = "fleet-live"
)

var (
	allWorkloads   = []string{wIngest, wSweepWire, wSweepUDP, wLive, wServeHot, wServeCold, wFleet}
	sweepWorkloads = []string{wSweepWire, wSweepUDP}
	serveWorkloads = []string{wServeHot, wServeCold}
	httpWorkloads  = []string{wServeHot, wServeCold, wFleet}
)

// metricDef names one number the harness prints. The catalogue below is
// the single definition of every name and unit: BENCHMARK.json is printed
// from it (-benchmark-json) and result.set refuses names it lacks.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the regression bound of an end-to-end metric, as a share of
	// the parent's median; zero marks a per-layer metric.
	Bound float64
	// On lists the workloads that measure it. An end-to-end metric is on
	// every workload (the contract prints all of them on each run); a
	// per-layer metric reads zero on a workload that does not run its layer.
	On []string
	// Moves says which end-to-end metric, on which workload, a change to
	// this number should move — written down before anything is measured.
	Moves string
}

func (d metricDef) endToEnd() bool { return d.Bound > 0 }

func (d metricDef) on(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var catalogue = []metricDef{
	// End to end: what a campaign operator, an analyst or a fleet operator
	// sees. One generic set, because the contract prints every end-to-end
	// metric on every workload and gives each one bound; README.md maps the
	// per-workload names the issue uses (ingest_days_per_s, serve_p50_us, ...)
	// onto them, and the bench.* per-layer rows carry those names verbatim.
	// The bounds are where the driver rejects a change outright; README.md
	// (Steadiness) has the measured spreads they were set from.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: allWorkloads},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: allWorkloads},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, On: allWorkloads},

	// The issue's end-to-end names, per workload, plus the harness's own
	// health figures.
	{Name: "bench.ingest_days_per_s", Unit: "days/s", Better: "higher", On: []string{wIngest}, Moves: "= work_per_s/campaign-ingest"},
	{Name: "bench.store_bytes_per_record", Unit: "B", Better: "lower", On: []string{wIngest}, Moves: "exact for a seed"},
	{Name: "bench.sweep_queries_per_s", Unit: "1/s", Better: "higher", On: sweepWorkloads, Moves: "= work_per_s/sweep-*"},
	{Name: "bench.sim_hours_per_s", Unit: "h/s", Better: "higher", On: []string{wLive}, Moves: "= work_per_s/live-reactive"},
	{Name: "bench.serve_req_per_s", Unit: "1/s", Better: "higher", On: httpWorkloads, Moves: "= work_per_s/serve-*; fleet-live: the delivered rate, which is the schedule"},
	{Name: "bench.goodput_per_s", Unit: "1/s", Better: "higher", On: []string{wFleet}, Moves: "= work_per_s/fleet-live: requests answered within the limit of their due time"},
	{Name: "bench.serve_p50_us", Unit: "us", Better: "lower", On: httpWorkloads, Moves: "= bench.op_p50_us/serve-*; fleet-live: from the due time"},
	{Name: "bench.serve_p99_us", Unit: "us", Better: "lower", On: httpWorkloads, Moves: "demoted tail; see README"},
	{Name: "bench.replica_catchup_ms", Unit: "ms", Better: "lower", On: []string{wFleet}, Moves: "replica freshness; = bench.op_p50_us/fleet-live in ms"},
	{Name: "bench.error_ratio", Unit: "ratio", Better: "lower", On: allWorkloads, Moves: "failed/attempted; expected 0"},
	{Name: "bench.op_p50_us", Unit: "us", Better: "lower", On: allWorkloads, Moves: "median wall time of one operation; demoted, see README"},
	{Name: "bench.op_tail_us", Unit: "us", Better: "lower", On: allWorkloads, Moves: "highest percentile with >=10 samples beyond"},
	{Name: "bench.op_tail_pct", Unit: "%", Better: "higher", On: allWorkloads, Moves: "which percentile op_tail_us is"},
	{Name: "bench.op_samples", Unit: "count", Better: "higher", On: allWorkloads, Moves: "sample count behind bench.op_p50_us"},
	{Name: "bench.late_p50_us", Unit: "us", Better: "lower", On: []string{wFleet}, Moves: "open-loop generator lateness, median; >1ms voids the run"},
	{Name: "bench.late_p99_us", Unit: "us", Better: "lower", On: []string{wFleet}, Moves: "generator lateness tail: run-queue wait while Reload and GC hold the cores"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", On: allWorkloads, Moves: "single-worker run, recorder off vs on"},
	{Name: "bench.budget_sum_pct", Unit: "%", Better: "higher", On: allWorkloads, Moves: "sum of self times / traced wall; 95..105"},

	{Name: "netsim.enumerate_us_per_day", Unit: "us", Better: "lower", On: []string{wIngest}, Moves: "work_per_s/campaign-ingest"},
	{Name: "netsim.records_per_day", Unit: "count", Better: "higher", On: []string{wIngest}, Moves: "input size"},
	{Name: "netsim.live_join_failures", Unit: "count", Better: "lower", On: []string{wLive}, Moves: "error_ratio/live-reactive"},

	{Name: "scanengine.merge_self_us_per_day", Unit: "us", Better: "lower", On: []string{wIngest}, Moves: "work_per_s/campaign-ingest"},
	{Name: "scanengine.self_ns_per_probe", Unit: "ns", Better: "lower", On: sweepWorkloads, Moves: "work_per_s/sweep-wire"},
	{Name: "scanengine.scan_allocs_per_probe", Unit: "count", Better: "lower", On: sweepWorkloads, Moves: "work_per_s/sweep-wire"},
	{Name: "scanengine.scan_bytes_per_probe", Unit: "B", Better: "lower", On: sweepWorkloads, Moves: "work_per_s/sweep-wire"},
	{Name: "scanengine.changes_per_sweep", Unit: "count", Better: "higher", On: sweepWorkloads, Moves: "input size"},
	{Name: "scanengine.correlation_overhead_pct", Unit: "%", Better: "lower", On: []string{wSweepWire}, Moves: "tracer on vs off; ROADMAP's -42%"},

	{Name: "dnsclient.lookup_self_ns_per_probe", Unit: "ns", Better: "lower", On: []string{wSweepWire}, Moves: "work_per_s/sweep-wire"},
	{Name: "dnsclient.udp_lookup_us_per_probe", Unit: "us", Better: "lower", On: []string{wSweepUDP}, Moves: "work_per_s/sweep-udp"},
	{Name: "dnsclient.retries_per_probe", Unit: "ratio", Better: "lower", On: []string{wSweepUDP}, Moves: "work_per_s, error_ratio/sweep-udp"},
	{Name: "dnsclient.timeouts", Unit: "count", Better: "lower", On: []string{wSweepUDP}, Moves: "error_ratio/sweep-udp"},

	{Name: "dnswire.marshal_ns_per_msg", Unit: "ns", Better: "lower", On: []string{wSweepWire}, Moves: "work_per_s/sweep-wire strongly, live-reactive weakly, sweep-udp not"},
	{Name: "dnswire.unmarshal_ns_per_msg", Unit: "ns", Better: "lower", On: []string{wSweepWire}, Moves: "as marshal"},
	{Name: "dnswire.allocs_per_roundtrip", Unit: "count", Better: "lower", On: []string{wSweepWire}, Moves: "as marshal"},
	{Name: "dnswire.response_bytes_mean", Unit: "B", Better: "lower", On: []string{wSweepWire}, Moves: "input size"},

	{Name: "dnsserver.handle_ns_per_query", Unit: "ns", Better: "lower", On: []string{wSweepWire}, Moves: "work_per_s/sweep-wire"},
	{Name: "dnsserver.handle_allocs_per_query", Unit: "count", Better: "lower", On: []string{wSweepWire}, Moves: "work_per_s/sweep-wire"},
	{Name: "dnsserver.absent_ratio", Unit: "ratio", Better: "lower", On: sweepWorkloads, Moves: "input mix (~93% NXDOMAIN)"},

	{Name: "fabric.datagrams_per_sim_hour", Unit: "count", Better: "lower", On: []string{wLive}, Moves: "work_per_s/live-reactive"},
	{Name: "fabric.icmp_per_sim_hour", Unit: "count", Better: "lower", On: []string{wLive}, Moves: "work_per_s/live-reactive"},
	{Name: "fabric.dropped_ratio", Unit: "ratio", Better: "lower", On: []string{wLive}, Moves: "error_ratio/live-reactive"},
	{Name: "fabric.send_ns_per_datagram", Unit: "ns", Better: "lower", On: []string{wLive}, Moves: "work_per_s/live-reactive"},

	{Name: "reactive.groups_per_sim_day", Unit: "count", Better: "higher", On: []string{wLive}, Moves: "input size"},
	{Name: "reactive.dns_error_ratio", Unit: "ratio", Better: "lower", On: []string{wLive}, Moves: "injected failure mix (Figure 6)"},
	{Name: "reactive.wall_ms_per_sim_hour_p50", Unit: "ms", Better: "lower", On: []string{wLive}, Moves: "work_per_s/live-reactive"},
	{Name: "reactive.wall_ms_per_sim_hour_p95", Unit: "ms", Better: "lower", On: []string{wLive}, Moves: "op tail/live-reactive"},

	{Name: "histstore.append_us_per_snapshot", Unit: "us", Better: "lower", On: []string{wIngest, wFleet}, Moves: "work_per_s/campaign-ingest; serve_p99_us/fleet-live"},
	{Name: "histstore.compact_ms_per_run", Unit: "ms", Better: "lower", On: []string{wIngest, wFleet}, Moves: "as append"},
	{Name: "histstore.compact_rewritten_bytes", Unit: "B", Better: "lower", On: []string{wIngest, wFleet}, Moves: "as append"},
	{Name: "histstore.sealed_bytes_per_record", Unit: "B", Better: "lower", On: []string{wIngest}, Moves: "store_bytes_per_record/campaign-ingest"},
	{Name: "histstore.at_ns_cached", Unit: "ns", Better: "lower", On: []string{wServeHot}, Moves: "work_per_s/serve-point-hot (predicted ~0)"},
	{Name: "histstore.at_us_cold", Unit: "us", Better: "lower", On: []string{wServeCold}, Moves: "work_per_s, bench.serve_p50_us/serve-scan-cold"},
	{Name: "histstore.range_us_per_query", Unit: "us", Better: "lower", On: []string{wServeCold}, Moves: "as at_us_cold"},
	{Name: "histstore.churn_us_per_query", Unit: "us", Better: "lower", On: []string{wServeCold}, Moves: "as at_us_cold"},
	{Name: "histstore.findname_us_per_query", Unit: "us", Better: "lower", On: []string{wServeCold}, Moves: "as at_us_cold"},
	{Name: "histstore.cache_hit_ratio", Unit: "ratio", Better: "higher", On: serveWorkloads, Moves: "as at_us_cold"},
	{Name: "histstore.reconstructions_per_query", Unit: "count", Better: "lower", On: serveWorkloads, Moves: "as at_us_cold"},
	{Name: "histstore.tier_loads_per_query", Unit: "count", Better: "lower", On: serveWorkloads, Moves: "as at_us_cold"},
	{Name: "histstore.open_ms", Unit: "ms", Better: "lower", On: httpWorkloads, Moves: "setup_s; replica_catchup_ms/fleet-live"},

	{Name: "rdnsserve.handler_us.at", Unit: "us", Better: "lower", On: httpWorkloads, Moves: "work_per_s, bench.serve_p50_us/serve-point-hot"},
	{Name: "rdnsserve.handler_us.range", Unit: "us", Better: "lower", On: []string{wServeCold, wFleet}, Moves: "work_per_s, bench.serve_p50_us/serve-scan-cold"},
	{Name: "rdnsserve.handler_us.churn", Unit: "us", Better: "lower", On: []string{wServeCold, wFleet}, Moves: "work_per_s, bench.serve_p50_us/serve-scan-cold"},
	{Name: "rdnsserve.handler_us.name", Unit: "us", Better: "lower", On: []string{wServeCold, wFleet}, Moves: "work_per_s, bench.serve_p50_us/serve-scan-cold"},
	{Name: "rdnsserve.self_us.at", Unit: "us", Better: "lower", On: []string{wServeHot}, Moves: "handler minus store replay; work_per_s/serve-point-hot"},
	{Name: "rdnsserve.allocs_per_req.at", Unit: "count", Better: "lower", On: []string{wServeHot}, Moves: "work_per_s/serve-point-hot"},
	{Name: "rdnsserve.bytes_per_req.at", Unit: "B", Better: "lower", On: []string{wServeHot}, Moves: "work_per_s/serve-point-hot"},
	{Name: "rdnsserve.response_bytes.range", Unit: "B", Better: "lower", On: []string{wServeCold}, Moves: "work_per_s, bench.serve_p50_us/serve-scan-cold"},
	{Name: "rdnsserve.observed_overhead_pct", Unit: "%", Better: "lower", On: []string{wServeHot}, Moves: "QueryLog + wire correlation vs default; ROADMAP's +84%"},
	{Name: "rdnsserve.querylog_parse_ns", Unit: "ns", Better: "lower", On: []string{wServeHot, wFleet}, Moves: "work_per_s (goodput), bench.serve_p50_us/fleet-live"},
	{Name: "rdnsserve.querylog_store_ns", Unit: "ns", Better: "lower", On: []string{wServeHot, wFleet}, Moves: "work_per_s (goodput), bench.serve_p50_us/fleet-live"},
	{Name: "rdnsserve.reload_ms", Unit: "ms", Better: "lower", On: []string{wFleet}, Moves: "replica_catchup_ms, serve_p99_us/fleet-live"},
	{Name: "rdnsserve.rejected_ratio", Unit: "ratio", Better: "lower", On: httpWorkloads, Moves: "error_ratio; expected 0 (no admission limits)"},

	{Name: "rdnsclient.overhead_us_per_req", Unit: "us", Better: "lower", On: serveWorkloads, Moves: "client latency minus handler: transport + JSON decode; work_per_s/serve-point-hot"},
	{Name: "rdnsclient.retries_per_req", Unit: "ratio", Better: "lower", On: httpWorkloads, Moves: "error_ratio"},
	{Name: "rdnsclient.p50_us.primary", Unit: "us", Better: "lower", On: []string{wFleet}, Moves: "work_per_s (goodput), bench.serve_p50_us/fleet-live"},
	{Name: "rdnsclient.p50_us.replica", Unit: "us", Better: "lower", On: []string{wFleet}, Moves: "work_per_s (goodput), bench.serve_p50_us/fleet-live"},

	{Name: "replica.sync_ms_per_day", Unit: "ms", Better: "lower", On: []string{wFleet}, Moves: "replica_catchup_ms/fleet-live"},
	{Name: "replica.feed_bytes_per_day", Unit: "B", Better: "lower", On: []string{wFleet}, Moves: "replica_catchup_ms/fleet-live"},
	{Name: "replica.fetches_per_sync", Unit: "count", Better: "lower", On: []string{wFleet}, Moves: "replica_catchup_ms/fleet-live"},
	{Name: "replica.noop_sync_us", Unit: "us", Better: "lower", On: []string{wFleet}, Moves: "idle replica cost"},
	{Name: "replica.bytes_behind_max", Unit: "B", Better: "lower", On: []string{wFleet}, Moves: "replica_catchup_ms/fleet-live"},

	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", On: allWorkloads, Moves: "tails, peak_rss_mb"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", On: allWorkloads, Moves: "tails, peak_rss_mb"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", On: allWorkloads, Moves: "tails, peak_rss_mb"},
}

var catalogueIdx = func() map[string]*metricDef {
	m := make(map[string]*metricDef, len(catalogue))
	for i := range catalogue {
		d := &catalogue[i]
		if _, dup := m[d.Name]; dup {
			panic("bench: duplicate metric " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// sample is one reported value with the number of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is what one workload run produces.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"` // correctness-gate failures
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	Budget    []opTotals        `json:"budget,omitempty"`
	TracedNS  int64             `json:"traced_wall_ns,omitempty"`
}

func newResult(workload string, seed uint64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, Metrics: make(map[string]sample)}
}

// set records a metric. A name outside the catalogue, one the workload
// does not own, or a second value for the same name is a harness bug.
func (r *result) set(name string, v float64, n int) {
	d, ok := catalogueIdx[name]
	if !ok {
		panic("bench: metric not in catalogue: " + name)
	}
	if !d.on(r.Workload) {
		panic(fmt.Sprintf("bench: metric %s is not a %s metric", name, r.Workload))
	}
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	r.Metrics[name] = sample{Value: v, Unit: d.Unit, N: n}
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// missing lists the catalogue metrics this run should have set and did
// not: every end-to-end metric always, every per-layer metric of the
// workload on a traced run.
func (r *result) missing() []string {
	var out []string
	for _, d := range catalogue {
		if !d.on(r.Workload) || (!d.endToEnd() && !r.Traced) {
			continue
		}
		if _, ok := r.Metrics[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
