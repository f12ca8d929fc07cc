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
	"strings"
	"time"
)

func main() {
	var cfg monConfig
	var targets, metrics string
	flag.StringVar(&targets, "targets", "", "comma-separated daemon API base URLs to monitor")
	flag.StringVar(&metrics, "metrics", "", "optional comma-separated Prometheus text URLs, one per target")
	flag.IntVar(&cfg.rounds, "rounds", 3, "poll rounds (deltas between first and last become rates)")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Second, "delay between poll rounds")
	flag.Float64Var(&cfg.rules.MaxErrorRate, "slo-max-error-rate", 0, "SLO: max hard-error rate over the window (0 = none allowed)")
	flag.Float64Var(&cfg.rules.MaxShedRate, "slo-max-shed-rate", 0.01, "SLO: max 429+503 pushback rate over the window")
	flag.Float64Var(&cfg.rules.MaxP95Seconds, "slo-p95", 1.0, "SLO: max p95 latency in seconds (negative disables)")
	flag.Float64Var(&cfg.rules.MaxP99Seconds, "slo-p99", 2.5, "SLO: max p99 latency in seconds (negative disables)")
	flag.Int64Var(&cfg.rules.MaxReplicaLagBytes, "slo-max-lag-bytes", 0, "SLO: max replica lag in feed bytes (negative = must be caught up, 0 disables)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the samples and report as JSON instead of the dashboard")
	flag.Parse()

	cfg.targets = splitList(targets)
	cfg.metrics = splitList(metrics)
	os.Exit(run(&cfg, os.Stdout, os.Stderr))
}

// splitList parses a comma-separated flag into trimmed non-empty items.
func splitList(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, strings.TrimRight(s, "/"))
		}
	}
	return out
}
