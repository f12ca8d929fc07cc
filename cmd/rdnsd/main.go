// Command rdnsd serves time-travel queries over a longitudinal PTR
// history store (internal/histstore) as a versioned JSON HTTP API. It is
// the query side of the paper's longitudinal analyses: once a campaign
// has appended its daily snapshots into a store (cmd/rdnsscan -store, or
// scan.Campaign with a Store attached), rdnsd answers "what name did
// this address hold on that day", "every observation in this prefix over
// that window", "how much churn", and "where has this given name ever
// appeared" without re-reading raw snapshot dumps.
//
//	rdnsd -store campaign.hist -addr 127.0.0.1:8077
//
//	curl 'http://127.0.0.1:8077/v1/at?ip=10.0.1.7&t=2020-03-15'
//	curl 'http://127.0.0.1:8077/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-31&limit=1000'
//	curl 'http://127.0.0.1:8077/v1/churn?prefix=10.0.0.0/16'
//	curl 'http://127.0.0.1:8077/v1/name?token=brian'
//	curl 'http://127.0.0.1:8077/v1/days'
//	curl 'http://127.0.0.1:8077/v1/stats'
//
// See docs/api.md for the v1 contract and the error envelope.
//
// Production controls:
//
//   - Admission: -rate/-burst give every client (keyed by X-API-Key,
//     else source address) a token bucket; -max-inflight bounds
//     concurrency, shedding the excess with 503 + Retry-After;
//     -acl-allow/-acl-deny restrict service by source prefix.
//   - Hot reload: SIGHUP (or POST /v1/admin/reload) reopens the store
//     and swaps it in without dropping in-flight queries — reload after
//     the campaign's daily append (and its compaction) lands to serve the
//     new snapshot. A store handle keeps every sealed segment's file
//     open, so the daemon holds one descriptor per segment plus its
//     tail's, and twice that while a reload's old handle drains.
//   - Telemetry: -metrics-addr serves Prometheus exposition with
//     rdnsd_* query/admission metrics alongside the store's hist_*
//     instruments. The aggregates and gauges are read at scrape time
//     from the counts /v1/stats reports; the hist_* series describe the
//     handle serving now, so a reload restarts them from its counts.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight queries
// drain, the exporter closes, and the store is closed cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/replica"
	"rdnsprivacy/internal/telemetry"
)

// options collects the flag values; kept as a struct so buildConfig is
// testable without flag juggling. cacheSize is storeCache in the daemon;
// tests open with a smaller cache.
type options struct {
	storePath   string
	cacheSize   int
	seed        int64
	rate        float64
	burst       float64
	maxInFlight int
	aclAllow    string
	aclDeny     string
	queryLog    int
	slowQuery   time.Duration
}

// parsePrefixList parses a comma-separated IPv4 CIDR list ("" → nil).
func parsePrefixList(s string) ([]dnswire.Prefix, error) {
	var out []dnswire.Prefix
	for _, part := range obs.SplitList(s) {
		p, err := dnswire.ParsePrefix(part)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", part, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// replicaBootstrap blocks until one sync lands a committed generation in
// the local mirror, so the daemon's read-only open has a store to serve.
// Failed attempts log and retry on the poll interval until the context
// dies.
func replicaBootstrap(ctx context.Context, sync func(context.Context) (bool, error), poll time.Duration, logf func(string, ...any)) error {
	for {
		if _, err := sync(ctx); err == nil {
			return nil
		} else {
			logf("rdnsd: replica sync: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// replicaCatchup is the replica's poll loop: pull the primary's feed,
// and swap the serving handle onto the new generation whenever a sync
// landed anything — the same zero-drop path as SIGHUP reload. Sync and
// reload failures log and leave the previous generation serving.
func replicaCatchup(ctx context.Context, sync func(context.Context) (bool, error), reload func() (rdnsclient.ReloadResponse, error), poll time.Duration, logf func(string, ...any)) {
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		changed, err := sync(ctx)
		if err != nil {
			if ctx.Err() == nil {
				logf("rdnsd: replica sync: %v", err)
			}
			continue
		}
		if !changed {
			continue
		}
		resp, err := reload()
		if err != nil {
			logf("rdnsd: replica reload: %v", err)
			continue
		}
		logf("rdnsd: replica generation %d (%d snapshots)", resp.Generation, resp.Snapshots)
	}
}

// openStore is the daemon's one way to open its store, first open and
// every reload alike. The daemon is a pure reader: it never registers a
// writer and never writes a file of the store, so the campaign's writer
// alone appends to and compacts its store, and a daemon crash can never
// tear it.
func openStore(o options, reg *telemetry.Registry) (*histstore.Store, error) {
	return histstore.Open(o.storePath,
		histstore.WithCache(o.cacheSize),
		histstore.WithTelemetry(reg),
		histstore.WithReadOnly())
}

// buildConfig translates flags into the serving config. Its Reopen is
// openStore: the daemon always hot-reloads.
func buildConfig(o options, reg *telemetry.Registry, tracer *telemetry.Tracer) (rdnsserve.Config, error) {
	allow, err := parsePrefixList(o.aclAllow)
	if err != nil {
		return rdnsserve.Config{}, fmt.Errorf("-acl-allow: %w", err)
	}
	deny, err := parsePrefixList(o.aclDeny)
	if err != nil {
		return rdnsserve.Config{}, fmt.Errorf("-acl-deny: %w", err)
	}
	cfg := rdnsserve.Config{
		Sink:   reg,
		Tracer: tracer,
		Seed:   o.seed,
		Admission: rdnsserve.AdmissionConfig{
			RatePerSec:  o.rate,
			Burst:       o.burst,
			MaxInFlight: o.maxInFlight,
			Allow:       allow,
			Deny:        deny,
		},
		Reopen: func() (*histstore.Store, error) { return openStore(o, reg) },
	}
	if o.queryLog > 0 {
		cfg.QueryLog = rdnsserve.NewQueryLog(rdnsserve.QueryLogConfig{
			Size:          o.queryLog,
			SlowThreshold: o.slowQuery,
		})
	}
	return cfg, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// storeCache is the reconstruction cache capacity, in block states, of
// every store handle the daemon opens.
const storeCache = 4096

// run is the daemon: it parses args, serves until ctx ends, and returns the
// exit status. Cancelling ctx is the SIGINT/SIGTERM path: in-flight queries
// drain, the exporter closes, and the store is closed cleanly. It logs to
// stderr from several goroutines, the bound API and metrics addresses
// among the first lines; it writes nothing to stdout.
func run(ctx context.Context, args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdnsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{cacheSize: storeCache}
	addr := fs.String("addr", "127.0.0.1:8077", "address to serve the query API on")
	metricsAddr := fs.String("metrics-addr", "", "serve telemetry HTTP endpoints on this address")
	fs.StringVar(&o.storePath, "store", "", "history store to serve (required)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for deterministic span correlation IDs")
	fs.Float64Var(&o.rate, "rate", 0, "per-client sustained requests/second (0 disables rate limiting)")
	fs.Float64Var(&o.burst, "burst", 0, "per-client burst capacity (default max(rate, 1))")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "bound on concurrent in-flight queries; excess sheds with 503 (0 = unbounded)")
	fs.StringVar(&o.aclAllow, "acl-allow", "", "comma-separated source prefixes to allow (empty = all)")
	fs.StringVar(&o.aclDeny, "acl-deny", "", "comma-separated source prefixes to deny (wins over allow)")
	replicaOf := fs.String("replica-of", "", "run as a read replica of the primary rdnsd at this base URL; -store names the local mirror directory (see docs/replication.md)")
	replPoll := fs.Duration("repl-poll", time.Second, "replica catch-up poll interval (with -replica-of)")
	fs.IntVar(&o.queryLog, "query-log", 0, "ring-buffer this many canonical query-log entries, served at the metrics address /querylog (0 disables; see docs/observability.md)")
	fs.DurationVar(&o.slowQuery, "slow-query", 250*time.Millisecond, "slow-query threshold (rounded up to a latency-histogram bucket bound; with -query-log)")
	queryLogOut := fs.String("query-log-out", "", "dump the query log as JSONL to this file at shutdown (with -query-log)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	if o.storePath == "" {
		logf("rdnsd: -store is required")
		fs.Usage()
		return 2
	}

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(o.seed, 4096)
	cfg, err := buildConfig(o, reg, tracer)
	if err != nil {
		logf("rdnsd: %v", err)
		return 2
	}

	// Replica mode: mirror the primary's feed into the local directory
	// until it holds a committed generation, so the read-only open below
	// has a store to serve. Later catch-ups happen on the poll loop.
	var syncer *replica.Syncer
	if *replicaOf != "" {
		syncer, err = replica.New(replica.Config{
			Source: *replicaOf,
			Dir:    o.storePath,
			Tracer: tracer,
			Seed:   o.seed,
		})
		if err != nil {
			logf("rdnsd: %v", err)
			return 2
		}
		if err := replicaBootstrap(ctx, syncer.Sync, *replPoll, logf); err != nil {
			return 1
		}
	}

	st, err := openStore(o, reg)
	if err != nil {
		logf("rdnsd: %v", err)
		return 1
	}
	srv := rdnsserve.New(st, cfg) // srv owns st from here on
	stats := st.Stats()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("rdnsd: %v", err)
		srv.Close()
		return 1
	}
	var exporter *telemetry.Exporter
	if *metricsAddr != "" {
		opts := []telemetry.ExporterOption{
			telemetry.WithExporterTracer(tracer),
			telemetry.WithExporterHealth(func() any { return srv.StatsSnapshot() }),
		}
		if qlog := srv.QueryLog(); qlog != nil {
			opts = append(opts, telemetry.WithExporterDump("/querylog", "application/x-ndjson",
				qlog.WriteJSONL, func() bool { return qlog.Len() == 0 }))
		}
		exporter = telemetry.NewExporter(reg, opts...)
		bound, err := exporter.Start(*metricsAddr)
		if err != nil {
			logf("rdnsd: metrics exporter: %v", err)
			ln.Close()
			srv.Close()
			return 1
		}
		logf("rdnsd: telemetry on http://%s/metrics", bound)
	}
	logf("rdnsd: serving %d snapshots across %d blocks on http://%s",
		stats.Snapshots, stats.Blocks, ln.Addr())

	// The replica's catch-up loop ends with loopCtx; run waits for it
	// before it closes the store.
	loopCtx, stopLoop := context.WithCancel(ctx)
	var catchup sync.WaitGroup
	if syncer != nil {
		srv.SetReplicaStatus(syncer.Status)
		catchup.Add(1)
		go func() {
			defer catchup.Done()
			replicaCatchup(loopCtx, syncer.Sync, srv.Reload, *replPoll, logf)
		}()
	}

	// SIGHUP → hot reload: swap onto the reopened store without dropping
	// in-flight queries. Fire it after the campaign's daily append lands.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	httpSrv := newHTTPServer(*addr, srv.Handler())
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	for serving := true; serving; {
		select {
		case <-ctx.Done():
			logf("rdnsd: shutting down")
			serving = false
		case err := <-done:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				logf("rdnsd: %v", err)
			}
			serving = false
		case <-hup:
			if resp, err := srv.Reload(); err != nil {
				logf("rdnsd: reload: %v", err)
			} else {
				logf("rdnsd: reloaded generation %d (%d snapshots)", resp.Generation, resp.Snapshots)
			}
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logf("rdnsd: shutdown: %v", err)
	}
	stopLoop()
	catchup.Wait()
	if exporter != nil {
		exporter.Close()
	}
	if qlog := srv.QueryLog(); qlog != nil {
		obs.DumpJSONL(stderr, "rdnsd: query log", *queryLogOut, qlog.Len(), "entries", qlog.WriteJSONL)
	}
	if err := srv.Close(); err != nil {
		logf("rdnsd: closing store: %v", err)
		return 1
	}
	return 0
}

// Bounds on what one connection to the public listener may hold open. A
// request is a short GET (or a bodyless admin POST), so its header gets
// seconds and kilobytes; the write deadline covers the store query plus the
// largest reply, a 1 MiB /v1/repl/segment chunk, down to ~17 kB/s.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 16 << 10
)

// newHTTPServer builds the public listener's server around h with those
// bounds, so a slow or oversized request costs a connection slot for a
// bounded time instead of for as long as the peer likes.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}
