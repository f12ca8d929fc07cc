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
//     new snapshot.
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/replica"
	"rdnsprivacy/internal/telemetry"
)

// options collects the flag values; kept as a struct so buildConfig is
// testable without flag juggling.
type options struct {
	storePath   string
	cacheSize   int
	hotSegments int
	seed        int64
	rate        float64
	burst       float64
	maxInFlight int
	aclAllow    string
	aclDeny     string
	replicaOf   string
	replPoll    time.Duration
	queryLog    int
	slowQuery   time.Duration
	queryLogOut string
}

// parsePrefixList parses a comma-separated IPv4 CIDR list ("" → nil).
func parsePrefixList(s string) ([]dnswire.Prefix, error) {
	if s == "" {
		return nil, nil
	}
	var out []dnswire.Prefix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
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
		histstore.WithHotSegments(o.hotSegments),
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
	var (
		o           options
		addr        = flag.String("addr", "127.0.0.1:8077", "address to serve the query API on")
		metricsAddr = flag.String("metrics-addr", "", "serve telemetry HTTP endpoints on this address")
	)
	flag.StringVar(&o.storePath, "store", "", "history store to serve (required)")
	flag.IntVar(&o.cacheSize, "cache", 4096, "reconstruction cache capacity in block states (0 disables)")
	flag.IntVar(&o.hotSegments, "hot-segments", histstore.DefaultHotSegments, "sealed segment files kept open; the least recently used are closed and re-opened on demand, and every segment's index stays resident (<=0 = unbounded)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for deterministic span correlation IDs")
	flag.Float64Var(&o.rate, "rate", 0, "per-client sustained requests/second (0 disables rate limiting)")
	flag.Float64Var(&o.burst, "burst", 0, "per-client burst capacity (default max(rate, 1))")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "bound on concurrent in-flight queries; excess sheds with 503 (0 = unbounded)")
	flag.StringVar(&o.aclAllow, "acl-allow", "", "comma-separated source prefixes to allow (empty = all)")
	flag.StringVar(&o.aclDeny, "acl-deny", "", "comma-separated source prefixes to deny (wins over allow)")
	flag.StringVar(&o.replicaOf, "replica-of", "", "run as a read replica of the primary rdnsd at this base URL; -store names the local mirror directory (see docs/replication.md)")
	flag.DurationVar(&o.replPoll, "repl-poll", time.Second, "replica catch-up poll interval (with -replica-of)")
	flag.IntVar(&o.queryLog, "query-log", 0, "ring-buffer this many canonical query-log entries, served at the metrics address /querylog (0 disables; see docs/observability.md)")
	flag.DurationVar(&o.slowQuery, "slow-query", 250*time.Millisecond, "slow-query threshold (rounded up to a latency-histogram bucket bound; with -query-log)")
	flag.StringVar(&o.queryLogOut, "query-log-out", "", "dump the query log as JSONL to this file at shutdown (with -query-log)")
	flag.Parse()
	if o.storePath == "" {
		fmt.Fprintln(os.Stderr, "rdnsd: -store is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(o.seed, 4096)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	// Replica mode: mirror the primary's feed into the local directory
	// until it holds a committed generation, so the read-only open below
	// has a store to serve. Later catch-ups happen on the poll loop.
	var syncer *replica.Syncer
	if o.replicaOf != "" {
		var err error
		syncer, err = replica.New(replica.Config{
			Source: o.replicaOf,
			Dir:    o.storePath,
			Tracer: tracer,
			Seed:   o.seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdnsd: %v\n", err)
			os.Exit(2)
		}
		if err := replicaBootstrap(ctx, syncer.Sync, o.replPoll, logf); err != nil {
			os.Exit(1)
		}
	}

	st, err := openStore(o, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdnsd: %v\n", err)
		os.Exit(1)
	}

	cfg, err := buildConfig(o, reg, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdnsd: %v\n", err)
		st.Close()
		os.Exit(2)
	}
	srv := rdnsserve.New(st, cfg) // srv owns st from here on
	httpSrv := newHTTPServer(*addr, srv.Handler())

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
			fmt.Fprintf(os.Stderr, "rdnsd: metrics exporter: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rdnsd: telemetry on http://%s/metrics\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdnsd: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	stats := st.Stats()
	fmt.Fprintf(os.Stderr, "rdnsd: serving %d snapshots across %d blocks on http://%s\n",
		stats.Snapshots, stats.Blocks, ln.Addr())

	// SIGHUP → hot reload: swap onto the reopened store without dropping
	// in-flight queries. Fire it after the campaign's daily append lands.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			resp, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdnsd: reload: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "rdnsd: reloaded generation %d (%d snapshots)\n",
				resp.Generation, resp.Snapshots)
		}
	}()

	if syncer != nil {
		srv.SetReplicaStatus(syncer.Status)
		go replicaCatchup(ctx, syncer.Sync, srv.Reload, o.replPoll, logf)
	}

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rdnsd: shutting down")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "rdnsd: %v\n", err)
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rdnsd: shutdown: %v\n", err)
	}
	if exporter != nil {
		exporter.Close()
	}
	if qlog := srv.QueryLog(); qlog != nil && o.queryLogOut != "" {
		if f, err := os.Create(o.queryLogOut); err != nil {
			fmt.Fprintf(os.Stderr, "rdnsd: query log dump: %v\n", err)
		} else {
			if err := qlog.WriteJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "rdnsd: query log dump: %v\n", err)
			}
			f.Close()
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "rdnsd: closing store: %v\n", err)
		os.Exit(1)
	}
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
