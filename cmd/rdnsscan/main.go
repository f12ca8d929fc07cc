// Command rdnsscan is a zdns-style reverse DNS scanner: it issues PTR
// queries for every address of a prefix against a name server over UDP and
// prints the results as ip,outcome,ptr,rtt_ms CSV (the output format of the
// paper's custom measurement tooling, Section 6.1). That is a per-probe
// log; cmd/dynfind and cmd/leakfind read the history store -store writes.
// Sweeps run through the sharded snapshot engine (internal/scanengine):
// the prefix is split into per-/16 shards and fanned out over a bounded
// worker pool.
//
// Point it at a server started with cmd/simnet, or at any DNS server that
// answers in-addr.arpa queries:
//
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/24
//	rdnsscan -server 127.0.0.1:5353 -ip 10.0.0.17
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/20 -workers 16
//
// With -watch it polls the prefix and prints record-set deltas — the
// "capturing DNS changes" tracker of the paper's Section 2.1:
//
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/24 -watch -interval 10s
//
// And -axfr attempts a zone transfer, the one-query enumeration open on
// misconfigured servers.
//
// Against flaky or rate-limiting servers, -resilient layers scan-level
// retries with jittered backoff, per-shard circuit breakers, and graceful
// degradation over the sweep, and reports the sweep's health on stderr:
//
//	rdnsscan -server 8.8.8.8:53 -prefix 192.0.2.0/24 -resilient -hedge 50ms
//
// See docs/resilience.md for the knobs and their semantics.
//
// With -metrics-addr the scanner serves its telemetry over HTTP while the
// sweep runs: Prometheus text on /metrics, expvar-style JSON on
// /debug/vars, the Go profiler under /debug/pprof/, the resilience
// HealthReport on /health and the span log on /trace:
//
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/16 -metrics-addr 127.0.0.1:9090
//	curl -s http://127.0.0.1:9090/metrics
//
// And -trace-out writes the sweep's span log (one JSON object per shard
// span, closing with the shard's outcome counts) for post-hoc analysis
// with `experiments -trace`:
//
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/20 -trace-out sweep.jsonl
//	experiments -trace sweep.jsonl
//
// -obs-out captures one observability frame per sweep (counter deltas,
// coverage, churn, health; one frame per poll with -watch) and writes the
// series as JSONL for `experiments -obs`:
//
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/24 -watch -obs-out frames.jsonl
//	experiments -obs frames.jsonl
//
// See docs/observability.md for metric names and the trace and frame
// schemas.
//
// -store appends each sweep's merged record set to a longitudinal
// history store (one snapshot per sweep; one per poll with -watch) and
// seals the store's tail into a segment once it holds the store's base
// interval of snapshots. The scanner is the store's only writer; cmd/rdnsd
// serves it over HTTP (reload it to see new snapshots) and dynfind -store
// and leakfind -store analyze it:
//
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/24 -watch -store campaign.hist
//	rdnsd -store campaign.hist
//
// See docs/storage.md for the on-disk format and the query API.
//
// Interrupting a sweep (Ctrl-C) cancels the engine's context: workers
// drain, the partial tally is reported, and the process exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, writes results to stdout and
// progress and errors to stderr, and returns the exit status. Cancelling
// ctx interrupts the sweep (or ends -watch).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdnsscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "127.0.0.1:5353", "name server host:port")
	prefix := fs.String("prefix", "", "CIDR prefix to scan (e.g. 10.0.0.0/24)")
	single := fs.String("ip", "", "single address to look up")
	timeout := fs.Duration("timeout", 2*time.Second, "per-query timeout")
	retries := fs.Int("retries", 1, "retransmissions after timeout")
	rate := fs.Int("rate", 0, "max queries per second (0 = unlimited)")
	workers := fs.Int("workers", 8, "resolver worker pool size")
	negTTL := fs.Duration("neg-ttl", 0, "negative-cache TTL for repeated sweeps (0 = off)")
	onlyFound := fs.Bool("only-found", false, "print only NOERROR results")
	resilient := fs.Bool("resilient", false, "enable the resilience layer: scan-level retries with jittered backoff, per-shard circuit breakers, graceful degradation (see docs/resilience.md)")
	maxAttempts := fs.Int("max-attempts", 3, "total lookups per address with -resilient")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff with -resilient (full jitter, doubling per attempt)")
	hedge := fs.Duration("hedge", 0, "hedged-lookup delay: race a second query after this long (0 = off, implies -resilient)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive faults that open a shard's circuit breaker with -resilient (0 = breaker off)")
	breakerOpen := fs.Duration("breaker-open", time.Second, "how long an open breaker waits before probing half-open")
	throttleDelay := fs.Duration("throttle-delay", 0, "initial adaptive pacing delay on REFUSED answers (0 = off)")
	seed := fs.Int64("seed", 1, "jitter seed; the same seed replays the same backoff schedule")
	axfr := fs.String("axfr", "", "attempt an AXFR of the given zone over TCP instead of scanning")
	watch := fs.Bool("watch", false, "poll the prefix and print record-set changes")
	interval := fs.Duration("interval", 30*time.Second, "polling interval for -watch")
	metricsAddr := fs.String("metrics-addr", "", "serve telemetry over HTTP on this address: /metrics (Prometheus), /debug/vars (JSON), /debug/pprof/, /health, /trace (see docs/observability.md)")
	traceOut := fs.String("trace-out", "", "write the sweep span log to this file as JSONL for `experiments -trace`")
	obsOut := fs.String("obs-out", "", "write one observability frame per sweep to this file as JSONL for `experiments -obs` (see docs/observability.md)")
	storeOut := fs.String("store", "", "append each sweep's record set to this longitudinal history store, queryable with cmd/rdnsd (see docs/storage.md)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	client := &dnsclient.UDPClient{Server: *server, Timeout: *timeout, Retries: *retries}
	defer client.Close()

	if *axfr != "" {
		zone, err := dnswire.ParseName(*axfr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		records, err := client.TransferZone(zone)
		if err != nil {
			fmt.Fprintf(stderr, "transfer failed: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "name,type,data")
		for _, rr := range records {
			fmt.Fprintf(stdout, "%s,%s,%s\n", rr.Name, rr.Type, rr.Data)
		}
		fmt.Fprintf(stderr, "transferred %d records in one query\n", len(records))
		return 0
	}

	if *watch && *prefix == "" {
		fmt.Fprintln(stderr, "-watch needs -prefix")
		return 2
	}
	var targets []dnswire.Prefix
	switch {
	case *single != "":
		ip, err := dnswire.ParseIPv4(*single)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		targets = []dnswire.Prefix{{Addr: ip, Bits: 32}}
	case *prefix != "":
		p, err := dnswire.ParsePrefix(*prefix)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		targets = []dnswire.Prefix{p}
	default:
		fmt.Fprintln(stderr, "need -prefix or -ip")
		fs.Usage()
		return 2
	}

	opts := []scanengine.Option{scanengine.WithWorkers(*workers)}
	if *rate > 0 {
		opts = append(opts, scanengine.WithRate(*rate))
	}
	if *negTTL > 0 {
		opts = append(opts, scanengine.WithNegativeTTL(*negTTL))
	}
	if *resilient || *hedge > 0 {
		opts = append(opts, scanengine.WithResilience(scanengine.ResilienceConfig{
			Retry: scanengine.RetryPolicy{
				MaxAttempts: *maxAttempts,
				BaseDelay:   *backoff,
			},
			Breaker: scanengine.BreakerConfig{
				Threshold: *breakerThreshold,
				OpenFor:   *breakerOpen,
			},
			Hedge:    scanengine.HedgeConfig{Delay: *hedge},
			Throttle: scanengine.ThrottleConfig{InitialDelay: *throttleDelay},
			Seed:     *seed,
		}))
	}

	var store *histstore.Store
	if *storeOut != "" {
		var err error
		store, err = histstore.Open(*storeOut)
		if err != nil {
			fmt.Fprintf(stderr, "store: %v\n", err)
			return 1
		}
		defer store.Close()
	}
	// lastHealth holds the most recent sweep's HealthReport for the
	// /health endpoint (nil until a resilient sweep completes).
	var lastHealth atomic.Pointer[scanengine.HealthReport]
	var tracer *telemetry.Tracer
	var recorder *obs.Recorder
	if *metricsAddr != "" || *traceOut != "" || *obsOut != "" {
		reg := telemetry.NewRegistry()
		tracer = telemetry.NewTracer(*seed, 0)
		opts = append(opts, scanengine.WithTelemetry(reg), scanengine.WithTracer(tracer))
		if *obsOut != "" {
			// With -store the frames also carry the store's state.
			recorder = obs.NewRecorder(reg)
			if store != nil {
				recorder.SetStoreStats(func() obs.StoreStats { return scan.StoreStats(store) })
			}
		}
		if *metricsAddr != "" {
			exp := telemetry.NewExporter(reg,
				telemetry.WithExporterTracer(tracer),
				telemetry.WithExporterHealth(func() any { return lastHealth.Load() }))
			addr, err := exp.Start(*metricsAddr)
			if err != nil {
				fmt.Fprintf(stderr, "metrics endpoint: %v\n", err)
				return 1
			}
			defer exp.Close()
			fmt.Fprintf(stderr, "telemetry: http://%s/metrics\n", addr)
		}
	}
	// record takes every sweep that ran to its end: it keeps the health
	// report, archives the snapshot and captures its frame.
	record := func(i int, snap *scanengine.Snapshot) {
		if snap.Health != nil {
			lastHealth.Store(snap.Health)
		}
		appendStore(store, snap, stderr)
		recorder.CaptureFrame(i, time.Now().UTC(), snap)
	}

	code := 0
	if *watch {
		sc := scanengine.New(dnsclient.UDPSource{Client: client}, opts...)
		code = watchLoop(ctx, sc, targets, *interval, record, stdout, stderr)
	} else {
		sc := scanengine.New(dnsclient.UDPSource{Client: client},
			append(opts, scanengine.WithResultFunc(csvPrinter(stdout, stderr, *onlyFound)))...)
		fmt.Fprintln(stdout, "ip,outcome,ptr,rtt_ms")
		snap, err := sc.Sweep(ctx, scanengine.Request{Targets: targets})
		if err != nil {
			fmt.Fprintf(stderr, "sweep interrupted: %v\n", err)
			code = 1
		}
		if snap != nil {
			fmt.Fprintf(stderr, "scanned %d addresses: %d records, %d errors\n",
				snap.Stats.Probes, snap.Stats.Found, snap.Stats.Errors)
			record(0, snap)
			printHealth(stderr, snap.Health)
		}
	}
	obs.WriteDumps(stderr, tracer, *traceOut, recorder, *obsOut)
	return code
}

// csvPrinter is the sweep's result func: it writes one CSV row per answered
// probe to out as the results arrive (only the found ones with onlyFound),
// and the probes that failed without an answer to errOut.
func csvPrinter(out, errOut io.Writer, onlyFound bool) func(scanengine.Result) {
	return func(res scanengine.Result) {
		resp, ok := res.Meta.(dnsclient.Response)
		if !ok {
			if res.Err != nil {
				fmt.Fprintf(errOut, "%s: %v\n", res.IP, res.Err)
			}
			return
		}
		if !onlyFound || resp.Outcome == dnsclient.OutcomeSuccess {
			fmt.Fprintf(out, "%s,%s,%s,%.1f\n", res.IP, resp.Outcome, resp.PTR,
				float64(resp.RTT.Microseconds())/1000)
		}
	}
}

// appendStore persists one sweep's record set as a history-store
// snapshot stamped with the wall clock. No-op without -store; a failed
// append (e.g. two polls within the store's one-second granularity) is
// reported but does not stop the scan. A cancelled sweep is not archived:
// the store would read every address it never reached as removed.
//
// After each append the scanner, the store's one writer, seals its tail
// into a segment once the tail holds the store's base interval of
// snapshots, so a store a -watch run keeps growing is compacted without
// anyone else writing it.
func appendStore(store *histstore.Store, snap *scanengine.Snapshot, stderr io.Writer) {
	if store == nil {
		return
	}
	if snap.Partial {
		fmt.Fprintln(stderr, "store: sweep incomplete, not archived")
		return
	}
	if err := store.AppendBlocks(time.Now().UTC(), snap.Blocks); err != nil {
		fmt.Fprintf(stderr, "store: %v\n", err)
		return
	}
	res, err := store.Compact(context.Background(), histstore.CompactOptions{})
	if err != nil {
		fmt.Fprintf(stderr, "store: compact: %v\n", err)
	} else if res.Skipped == "" {
		fmt.Fprintf(stderr, "store: sealed %d snapshots into %s, %d B -> %d B\n",
			res.Sealed, res.Segment, res.TailBytes, res.SegmentBytes)
	}
}

// printHealth summarizes the resilience layer's HealthReport on w (only
// present when the layer is enabled).
func printHealth(w io.Writer, h *scanengine.HealthReport) {
	if h == nil {
		return
	}
	t := h.Totals
	fmt.Fprintf(w, "health: %d attempts, %d retries, %d throttled, %d hedges (%d won), %d breaker opens, %d skipped\n",
		t.Attempts, t.Retries, t.Throttled, t.Hedges, t.HedgeWins, t.BreakerOpens, t.Skipped)
	for _, p := range h.Degraded {
		fmt.Fprintf(w, "health: DEGRADED %s — breaker budget exhausted, range incompletely scanned\n", p)
	}
}

// watchLoop re-sweeps the targets every interval until ctx ends and prints
// the deltas each snapshot carries against its predecessor; record takes
// every sweep that ran to its end. It returns the exit status: 1 when the
// baseline sweep was interrupted, else 0.
func watchLoop(ctx context.Context, sc *scanengine.Scanner, targets []dnswire.Prefix, interval time.Duration, record func(int, *scanengine.Snapshot), stdout, stderr io.Writer) int {
	snap, err := sc.Sweep(ctx, scanengine.Request{Targets: targets})
	if err != nil {
		fmt.Fprintf(stderr, "baseline sweep interrupted: %v\n", err)
		return 1
	}
	record(0, snap)
	fmt.Fprintf(stderr, "baseline: %d records; watching every %s\n", snap.Blocks.Len(), interval)
	for sweep := 1; ; sweep++ {
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(interval):
		}
		snap, err = sc.Sweep(ctx, scanengine.Request{Targets: targets})
		if err != nil {
			fmt.Fprintf(stderr, "sweep interrupted: %v\n", err)
			return 0
		}
		record(sweep, snap)
		now := time.Now().Format("15:04:05")
		for _, ch := range snap.Changes {
			switch ch.Kind {
			case scanengine.RecordAdded:
				fmt.Fprintf(stdout, "%s  + %-16s %s\n", now, ch.IP, ch.New)
			case scanengine.RecordRemoved:
				fmt.Fprintf(stdout, "%s  - %-16s %s\n", now, ch.IP, ch.Old)
			case scanengine.RecordChanged:
				fmt.Fprintf(stdout, "%s  ~ %-16s %s -> %s\n", now, ch.IP, ch.Old, ch.New)
			}
		}
	}
}
