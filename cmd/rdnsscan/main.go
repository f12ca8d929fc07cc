// Command rdnsscan is a zdns-style reverse DNS scanner: it issues PTR
// queries for every address of a prefix against a name server over UDP and
// prints the results as ip,outcome,ptr,rtt_ms CSV (the output format of the
// paper's custom measurement tooling, Section 6.1). That is a per-probe
// log, not the date,ip,ptr observations cmd/dynfind and cmd/leakfind read. Sweeps run through the sharded
// snapshot engine (internal/scanengine): the prefix is split into per-/16
// shards and fanned out over a bounded worker pool.
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
// See docs/observability.md for metric names and the trace schema, and
// docs/observability.md for the frame schema.
//
// -store appends each sweep's merged record set to a longitudinal
// history store (one snapshot per sweep; one per poll with -watch) and
// seals the store's tail into a segment once it holds the store's base
// interval of snapshots. The scanner is the store's only writer; cmd/rdnsd
// serves it over HTTP (reload it to see new snapshots) and leakfind -store
// analyzes it:
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
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// lastHealth holds the most recent sweep's HealthReport for the /health
// endpoint (nil until a resilient sweep completes).
var lastHealth atomic.Pointer[scanengine.HealthReport]

func main() {
	server := flag.String("server", "127.0.0.1:5353", "name server host:port")
	prefix := flag.String("prefix", "", "CIDR prefix to scan (e.g. 10.0.0.0/24)")
	single := flag.String("ip", "", "single address to look up")
	timeout := flag.Duration("timeout", 2*time.Second, "per-query timeout")
	retries := flag.Int("retries", 1, "retransmissions after timeout")
	rate := flag.Int("rate", 0, "max queries per second (0 = unlimited)")
	workers := flag.Int("workers", 8, "resolver worker pool size")
	negTTL := flag.Duration("neg-ttl", 0, "negative-cache TTL for repeated sweeps (0 = off)")
	onlyFound := flag.Bool("only-found", false, "print only NOERROR results")
	resilient := flag.Bool("resilient", false, "enable the resilience layer: scan-level retries with jittered backoff, per-shard circuit breakers, graceful degradation (see docs/resilience.md)")
	maxAttempts := flag.Int("max-attempts", 3, "total lookups per address with -resilient")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "base retry backoff with -resilient (full jitter, doubling per attempt)")
	hedge := flag.Duration("hedge", 0, "hedged-lookup delay: race a second query after this long (0 = off, implies -resilient)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive faults that open a shard's circuit breaker with -resilient (0 = breaker off)")
	breakerOpen := flag.Duration("breaker-open", time.Second, "how long an open breaker waits before probing half-open")
	throttleDelay := flag.Duration("throttle-delay", 0, "initial adaptive pacing delay on REFUSED answers (0 = off)")
	seed := flag.Int64("seed", 1, "jitter seed; the same seed replays the same backoff schedule")
	axfr := flag.String("axfr", "", "attempt an AXFR of the given zone over TCP instead of scanning")
	watch := flag.Bool("watch", false, "poll the prefix and print record-set changes")
	interval := flag.Duration("interval", 30*time.Second, "polling interval for -watch")
	metricsAddr := flag.String("metrics-addr", "", "serve telemetry over HTTP on this address: /metrics (Prometheus), /debug/vars (JSON), /debug/pprof/, /health, /trace (see docs/observability.md)")
	traceOut := flag.String("trace-out", "", "write the sweep span log to this file as JSONL for `experiments -trace`")
	obsOut := flag.String("obs-out", "", "write one observability frame per sweep to this file as JSONL for `experiments -obs` (see docs/observability.md)")
	storeOut := flag.String("store", "", "append each sweep's record set to this longitudinal history store, queryable with cmd/rdnsd (see docs/storage.md)")
	flag.Parse()

	client := &dnsclient.UDPClient{Server: *server, Timeout: *timeout, Retries: *retries}
	defer client.Close()

	if *axfr != "" {
		zone, err := dnswire.ParseName(*axfr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		records, err := client.TransferZone(zone)
		if err != nil {
			fmt.Fprintf(os.Stderr, "transfer failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("name,type,data")
		for _, rr := range records {
			fmt.Printf("%s,%s,%s\n", rr.Name, rr.Type, rr.Data)
		}
		fmt.Fprintf(os.Stderr, "transferred %d records in one query\n", len(records))
		return
	}

	var targets []dnswire.Prefix
	switch {
	case *single != "":
		ip, err := dnswire.ParseIPv4(*single)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		targets = []dnswire.Prefix{{Addr: ip, Bits: 32}}
	case *prefix != "":
		p, err := dnswire.ParsePrefix(*prefix)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		targets = []dnswire.Prefix{p}
	default:
		fmt.Fprintln(os.Stderr, "need -prefix or -ip")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

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

	var tracer *telemetry.Tracer
	var recorder *obs.Recorder
	var store *histstore.Store
	if *storeOut != "" {
		var err error
		store, err = histstore.Open(*storeOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "store: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
	}
	if *metricsAddr != "" || *traceOut != "" || *obsOut != "" {
		reg := telemetry.NewRegistry()
		tracer = telemetry.NewTracer(*seed, 0)
		opts = append(opts, scanengine.WithTelemetry(reg), scanengine.WithTracer(tracer))
		if *obsOut != "" {
			recorder = newRecorder(reg, store)
		}
		if *metricsAddr != "" {
			exp := telemetry.NewExporter(reg,
				telemetry.WithExporterTracer(tracer),
				telemetry.WithExporterHealth(func() any { return lastHealth.Load() }))
			addr, err := exp.Start(*metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
				os.Exit(1)
			}
			defer exp.Close()
			fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
		}
	}
	if *watch {
		if *prefix == "" {
			fmt.Fprintln(os.Stderr, "-watch needs -prefix")
			os.Exit(2)
		}
		watchLoop(ctx, client, targets, *interval, opts, recorder, store)
		dumpTrace(tracer, *traceOut)
		dumpFrames(recorder, *obsOut)
		return
	}

	sc := scanengine.New(dnsclient.UDPSource{Client: client},
		append(opts, scanengine.WithResultFunc(csvPrinter(os.Stdout, os.Stderr, *onlyFound)))...)
	fmt.Println("ip,outcome,ptr,rtt_ms")
	snap, err := sc.Sweep(ctx, scanengine.Request{Targets: targets})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep interrupted: %v\n", err)
	}
	if snap != nil {
		fmt.Fprintf(os.Stderr, "scanned %d addresses: %d records, %d errors\n",
			snap.Stats.Probes, snap.Stats.Found, snap.Stats.Errors)
		if snap.Health != nil {
			lastHealth.Store(snap.Health)
		}
		appendStore(store, snap)
		recorder.CaptureFrame(0, time.Now().UTC(), snap)
	}
	printHealth(snap)
	dumpTrace(tracer, *traceOut)
	dumpFrames(recorder, *obsOut)
	if err != nil {
		os.Exit(1)
	}
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

// newRecorder is the -obs-out frame recorder over the sweep's registry;
// with -store its frames also carry the store's state.
func newRecorder(reg *telemetry.Registry, store *histstore.Store) *obs.Recorder {
	rec := obs.NewRecorder(reg)
	if store != nil {
		rec.SetStoreStats(func() obs.StoreStats { return scan.StoreStats(store) })
	}
	return rec
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
func appendStore(store *histstore.Store, snap *scanengine.Snapshot) {
	if store == nil || snap == nil {
		return
	}
	if snap.Partial {
		fmt.Fprintln(os.Stderr, "store: sweep incomplete, not archived")
		return
	}
	if err := store.AppendBlocks(time.Now().UTC(), snap.Blocks); err != nil {
		fmt.Fprintf(os.Stderr, "store: %v\n", err)
		return
	}
	res, err := store.Compact(context.Background(), histstore.CompactOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "store: compact: %v\n", err)
	} else if res.Skipped == "" {
		fmt.Fprintf(os.Stderr, "store: sealed %d snapshots into %s, %d B -> %d B\n",
			res.Sealed, res.Segment, res.TailBytes, res.SegmentBytes)
	}
}

// dumpFrames writes the captured sweep frames as JSONL, the input format
// of `experiments -obs`. No-ops when frame capture is off or no path was
// given.
func dumpFrames(rec *obs.Recorder, path string) {
	if rec == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return
	}
	defer f.Close()
	if err := rec.Store().WriteJSONL(f); err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "obs: wrote %d frames to %s\n", rec.Store().Len(), path)
}

// dumpTrace writes the tracer's span log as JSONL, the input format of
// `experiments -trace`. No-ops when tracing is off or no path was given.
func dumpTrace(tracer *telemetry.Tracer, path string) {
	if tracer == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	defer f.Close()
	if err := tracer.WriteJSONL(f); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %d spans to %s\n", tracer.Len(), path)
}

// printHealth summarizes the resilience layer's HealthReport on stderr
// (only present when the layer is enabled).
func printHealth(snap *scanengine.Snapshot) {
	if snap == nil || snap.Health == nil {
		return
	}
	t := snap.Health.Totals
	fmt.Fprintf(os.Stderr, "health: %d attempts, %d retries, %d throttled, %d hedges (%d won), %d breaker opens, %d skipped\n",
		t.Attempts, t.Retries, t.Throttled, t.Hedges, t.HedgeWins, t.BreakerOpens, t.Skipped)
	for _, p := range snap.Health.Degraded {
		fmt.Fprintf(os.Stderr, "health: DEGRADED %s — breaker budget exhausted, range incompletely scanned\n", p)
	}
}

// watchLoop re-sweeps the targets through the engine and prints the deltas
// each snapshot carries against its predecessor. With frame capture on,
// every sweep becomes one observability frame.
func watchLoop(ctx context.Context, client *dnsclient.UDPClient, targets []dnswire.Prefix, interval time.Duration, opts []scanengine.Option, recorder *obs.Recorder, store *histstore.Store) {
	sc := scanengine.New(dnsclient.UDPSource{Client: client}, opts...)
	snap, err := sc.Sweep(ctx, scanengine.Request{Targets: targets})
	if err != nil {
		fmt.Fprintf(os.Stderr, "baseline sweep interrupted: %v\n", err)
		os.Exit(1)
	}
	appendStore(store, snap)
	recorder.CaptureFrame(0, time.Now().UTC(), snap)
	fmt.Fprintf(os.Stderr, "baseline: %d records; watching every %s\n", snap.Blocks.Len(), interval)
	for sweep := 1; ; sweep++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		snap, err = sc.Sweep(ctx, scanengine.Request{Targets: targets})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep interrupted: %v\n", err)
			return
		}
		if snap.Health != nil {
			lastHealth.Store(snap.Health)
		}
		appendStore(store, snap)
		recorder.CaptureFrame(sweep, time.Now().UTC(), snap)
		now := time.Now().Format("15:04:05")
		for _, ch := range snap.Changes {
			switch ch.Kind {
			case scanengine.RecordAdded:
				fmt.Printf("%s  + %-16s %s\n", now, ch.IP, ch.New)
			case scanengine.RecordRemoved:
				fmt.Printf("%s  - %-16s %s\n", now, ch.IP, ch.Old)
			case scanengine.RecordChanged:
				fmt.Printf("%s  ~ %-16s %s -> %s\n", now, ch.IP, ch.Old, ch.New)
			}
		}
	}
}
