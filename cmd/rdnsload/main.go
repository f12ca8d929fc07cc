// Command rdnsload drives an rdnsd with tens of thousands of concurrent
// mixed v1 queries and judges the result against latency/error SLOs
// (internal/obs.LoadRules). It is the load side of the production-serving
// acceptance story: the paper's query patterns — point lookups, prefix
// scans, churn summaries, name searches — at the concurrency a public
// deployment would see.
//
// With -store it self-hosts: it serves that store through internal/rdnsserve
// in-process and drives the handler through an in-memory transport — no
// sockets, so 10k+ concurrent clients don't exhaust file descriptors or
// ephemeral ports before they stress the serving path. Point -url at a
// live daemon to generate load over real HTTP instead.
//
//	rdnsload -store campaign/alpha -workers 10000 -requests 30000 -mix 'at=50,range=20,churn=10,name=10,days=5,stats=5'
//	rdnsload -url http://127.0.0.1:8077 -workers 200 -requests 10000
//	rdnsload -url http://primary:8077,http://replica:8078 -slo-max-lag-bytes -1
//
// Either way the workload aims at what is served: the days /v1/days
// lists, and the /24s, addresses and name tokens of every record of the
// newest day (all its /v1/range pages).
//
// -url accepts a comma-separated primary+replica set: workers fan across
// the targets round-robin, and after the run each replica target's
// /v1/stats lag report becomes a lag:* sample judged by
// -slo-max-lag-bytes (see docs/replication.md).
//
// With -trace every request carries an X-Rdns-Corr correlation ID and
// the latency histograms retain per-bucket exemplars; after the run the
// report names the exact query behind each sample's p99 and renders its
// stitched client→daemon(→replica-sync) chain. Self-hosted runs stitch
// the in-process server's spans automatically; live runs add the
// daemons' /trace dumps via -trace-dump.
//
// Every worker is its own client (distinct X-API-Key, so per-client rate
// limits apply per worker) with retries disabled: pushback (429/503) is
// counted, not hidden. The run reports per-endpoint and total p50/p95/p99
// plus error/shed rates, evaluates them against the SLO flags, prints a
// verdict, and exits 1 when out of SLO.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rdnsprivacy/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, drives the run, writes the report to
// stdout and the verdict and errors to stderr, and returns the exit status:
// 0 within SLO, 1 out of it or on an error, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdnsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg loadConfig
	fs.StringVar(&cfg.url, "url", "", "drive live daemons at this comma-separated base URL list (a primary+replica set fans workers round-robin) instead of self-hosting")
	fs.StringVar(&cfg.storePath, "store", "", "self-host this store (required without -url)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.workers, "workers", 10000, "concurrent client workers")
	fs.IntVar(&cfg.requests, "requests", 30000, "total requests across all workers")
	fs.StringVar(&cfg.mixSpec, "mix", "at=50,range=20,churn=10,name=10,days=5,stats=5",
		"endpoint mix as comma-separated endpoint=weight pairs")
	fs.Float64Var(&cfg.rate, "rate", 0, "self-hosted per-client rate limit (requests/second, 0 = off)")
	fs.Float64Var(&cfg.burst, "burst", 0, "self-hosted per-client burst capacity")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 0, "self-hosted in-flight bound (0 = unbounded)")
	cfg.rules.RegisterFlags(fs)
	fs.BoolVar(&cfg.trace, "trace", false, "propagate correlation IDs and report the exemplar chains behind the worst latencies")
	fs.StringVar(&cfg.traceDump, "trace-dump", "", "comma-separated extra span sources to stitch: JSONL files or live daemons' /trace URLs")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if cfg.workers < 1 || cfg.requests < cfg.workers {
		fmt.Fprintln(stderr, "rdnsload: need -workers >= 1 and -requests >= -workers")
		return 2
	}
	if cfg.url == "" && cfg.storePath == "" {
		fmt.Fprintln(stderr, "rdnsload: need -store or -url")
		return 2
	}
	start := time.Now()
	res, err := runLoad(ctx, &cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "rdnsload: %v\n", err)
		return 1
	}
	res.Elapsed = time.Since(start).Seconds()

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		printReport(stdout, res)
	}
	if !res.Report.OK {
		fmt.Fprintf(stderr, "rdnsload: OUT OF SLO (%d/%d samples violating)\n",
			res.Report.ViolatingSamples, len(res.Report.Verdicts))
		return 1
	}
	fmt.Fprintf(stderr, "rdnsload: within SLO (%d samples)\n", len(res.Report.Verdicts))
	return 0
}

func printReport(w io.Writer, res *loadResult) {
	fmt.Fprintf(w, "workers=%d requests=%d peak_in_flight=%d elapsed=%.2fs (%.0f req/s)\n",
		res.Workers, res.Requests, res.PeakInFlight, res.Elapsed, float64(res.Requests)/res.Elapsed)
	fmt.Fprintf(w, "%-8s %9s %7s %7s %7s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "429", "503", "p50", "p95", "p99")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%-8s %9d %7d %7d %7d %9.1fms %9.1fms %9.1fms\n",
			s.Label, s.Requests, s.Errors, s.RateLimited, s.Shed,
			s.P50*1e3, s.P95*1e3, s.P99*1e3)
	}
	for _, c := range res.ExemplarChains {
		fmt.Fprintln(w, c)
	}
	fmt.Fprintln(w, res.Report.Summary())
}

// loadResult is the run's full output.
type loadResult struct {
	Workers      int              `json:"workers"`
	Requests     int              `json:"requests"`
	PeakInFlight int64            `json:"peak_in_flight"`
	Elapsed      float64          `json:"elapsed_seconds"`
	Samples      []obs.LoadSample `json:"samples"`
	Report       obs.LoadReport   `json:"report"`
	// ExemplarChains renders, per sample, the stitched causal chain of the
	// query behind the p99 exemplar (-trace runs only).
	ExemplarChains []string `json:"exemplar_chains,omitempty"`
}
