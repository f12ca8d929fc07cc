// Command rdnsmon is the fleet monitor: it polls N rdnsd daemons'
// /v1/stats (and optionally their Prometheus metrics listeners), renders
// a textplot dashboard — per-daemon qps, latency quantiles with p99
// exemplar correlation IDs, error and shed rates, replica lag,
// segment tier state — and judges the fleet against the same
// declarative SLO rules cmd/rdnsload uses (internal/obs.LoadRules).
//
//	rdnsmon -targets http://primary:8077,http://replica:8078 -rounds 5 -interval 2s
//	rdnsmon -targets http://primary:8077 -metrics http://primary:9090/metrics
//	rdnsmon -targets ... -slo-p99 0.5 -slo-max-lag-bytes 1048576 && deploy-next-canary
//
// Counters are polled over a window (-rounds × -interval) so cumulative
// totals become rates; latency quantiles and exemplars are each daemon's
// own histograms as of the last round. The exit code makes it a
// scriptable health gate for multi-daemon scenarios: 0 within SLO, 1 on
// a breach or an unreachable daemon, 2 on a usage error.
package main

import (
	"flag"
	"os"
	"time"

	"rdnsprivacy/internal/obs"
)

func main() {
	var cfg monConfig
	var targets, metrics string
	flag.StringVar(&targets, "targets", "", "comma-separated daemon API base URLs to monitor")
	flag.StringVar(&metrics, "metrics", "", "optional comma-separated Prometheus text URLs, one per target")
	flag.IntVar(&cfg.rounds, "rounds", 3, "poll rounds (deltas between first and last become rates)")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Second, "delay between poll rounds")
	cfg.rules.RegisterFlags(flag.CommandLine)
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the samples and report as JSON instead of the dashboard")
	flag.Parse()

	cfg.targets = obs.SplitList(targets)
	cfg.metrics = obs.SplitList(metrics)
	os.Exit(run(&cfg, os.Stdout, os.Stderr))
}
