package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/telemetry"
)

// loadConfig collects the run parameters (see run for the flags).
type loadConfig struct {
	// url is empty (self-host storePath) or a comma-separated
	// primary+replica target list; workers fan across the targets
	// round-robin.
	url         string
	storePath   string
	seed        int64
	workers     int
	requests    int
	mixSpec     string
	rate        float64
	burst       float64
	maxInFlight int
	rules       obs.LoadRules
	// trace propagates correlation IDs on every request and retains the
	// per-bucket latency exemplars, so the report can name the exact
	// queries behind the worst quantiles.
	trace bool
	// traceDump lists extra span sources to stitch into the exemplar
	// chains: comma-separated JSONL file paths or /trace dump URLs (a live
	// daemon's metrics listener). Self-hosted runs need none — the in-proc
	// server's tracer is stitched automatically.
	traceDump string
}

// endpoints the mix can name, in reporting order.
var endpointOrder = []string{"at", "range", "churn", "name", "days", "stats"}

// mixPicker draws endpoints by weight from a cumulative table, in
// O(log n) per seeded draw.
type mixPicker struct {
	names []string
	cum   []int
}

// parseMix parses "at=50,range=20,..." into a picker over the endpoints
// it weighs.
func parseMix(spec string) (*mixPicker, error) {
	weights := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want endpoint=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: weight must be a non-negative integer", part)
		}
		if !slices.Contains(endpointOrder, name) {
			return nil, fmt.Errorf("mix entry %q: unknown endpoint (have %s)", part, strings.Join(endpointOrder, ", "))
		}
		weights[name] += w
	}
	p, total := &mixPicker{}, 0
	for _, name := range endpointOrder {
		if w := weights[name]; w > 0 {
			total += w
			p.names = append(p.names, name)
			p.cum = append(p.cum, total)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q: all weights zero", spec)
	}
	return p, nil
}

func (p *mixPicker) pick(r uint64) string {
	n := int(r % uint64(p.cum[len(p.cum)-1]))
	return p.names[sort.SearchInts(p.cum, n+1)]
}

// splitmix is the workload RNG: deterministic, cheap, no shared state.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inprocTransport drives an http.Handler without sockets: tens of
// thousands of concurrent clients on one box would exhaust file
// descriptors and ephemeral ports long before they stressed the serving
// path.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := req.Clone(req.Context())
	r2.RemoteAddr = "127.0.0.1:0"
	if r2.Body == nil {
		r2.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r2)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// endpointStats accumulates one endpoint's outcome counters.
type endpointStats struct {
	requests    atomic.Uint64
	errors      atomic.Uint64
	rateLimited atomic.Uint64
	shed        atomic.Uint64
}

// runLoad executes the configured run and evaluates the SLOs; it reports
// what goes wrong after the run on stderr.
func runLoad(ctx context.Context, cfg *loadConfig, stderr io.Writer) (*loadResult, error) {
	picker, err := parseMix(cfg.mixSpec)
	if err != nil {
		return nil, err
	}

	targets := obs.SplitList(cfg.url)
	hc := &http.Client{Timeout: 60 * time.Second}

	// Tracing retains one client span per request; the ring is sized to
	// the run (capped — past the cap the oldest spans fall out and a worst
	// offender may render as a bare correlation ID).
	var clientTracer, srvTracer *telemetry.Tracer
	if cfg.trace {
		clientTracer = telemetry.NewTracer(cfg.seed, min(cfg.requests, 1<<16))
		// Wire-propagated correlations get parse/store child spans, so the
		// server side completes up to three spans per request.
		srvTracer = telemetry.NewTracer(cfg.seed+1, min(3*cfg.requests, 3<<16))
	}

	if len(targets) == 0 {
		// Self-host: serve the store in-process.
		st, err := histstore.Open(cfg.storePath, histstore.WithCache(4096), histstore.WithReadOnly())
		if err != nil {
			return nil, err
		}
		srv := rdnsserve.New(st, rdnsserve.Config{
			Sink:   telemetry.NewRegistry(),
			Tracer: srvTracer,
			Seed:   cfg.seed,
			Admission: rdnsserve.AdmissionConfig{
				RatePerSec:  cfg.rate,
				Burst:       cfg.burst,
				MaxInFlight: cfg.maxInFlight,
			},
		})
		defer srv.Close()
		targets = []string{"http://rdnsd.inproc"}
		hc = &http.Client{Transport: inprocTransport{h: srv.Handler()}}
	}

	shape, err := learnShape(ctx, rdnsclient.New(targets[0], rdnsclient.WithHTTPClient(hc)))
	if err != nil {
		return nil, err
	}

	stats := make(map[string]*endpointStats, len(endpointOrder))
	reg := telemetry.NewRegistry()
	hists := make(map[string]*telemetry.Histogram, len(endpointOrder))
	for _, e := range endpointOrder {
		stats[e] = &endpointStats{}
		hists[e] = reg.Histogram(`load_latency_seconds{endpoint="`+e+`"}`, telemetry.DefaultLatencyBuckets())
	}
	total := reg.Histogram("load_latency_seconds", telemetry.DefaultLatencyBuckets())

	var inFlight, peak atomic.Int64
	enter := func() {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}

	// The start barrier: every worker registers its first request as
	// in-flight, then blocks until all have — so the run provably reaches
	// `workers` concurrent pending queries before the first completes.
	var ready sync.WaitGroup
	start := make(chan struct{})
	var wg sync.WaitGroup
	perWorker := cfg.requests / cfg.workers
	extra := cfg.requests % cfg.workers

	ready.Add(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		n := perWorker
		if w < extra {
			n++
		}
		if n == 0 {
			ready.Done()
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			// Workers fan across the target set round-robin, so a
			// primary+replica pair each sees half the load.
			opts := []rdnsclient.Option{
				rdnsclient.WithHTTPClient(hc),
				rdnsclient.WithAPIKey(fmt.Sprintf("load-%d", w)),
				rdnsclient.WithRetries(0, 0), // pushback is counted, not hidden
			}
			// The hook runs on this goroutine between Do and the latency
			// observation below, so lastCorr needs no synchronization: it
			// names the request whose latency is about to be recorded.
			var lastCorr uint64
			if cfg.trace {
				opts = append(opts,
					rdnsclient.WithTrace(cfg.seed, clientTracer),
					rdnsclient.WithRequestHook(func(ri rdnsclient.RequestInfo) { lastCorr = ri.Corr }))
			}
			c := rdnsclient.New(targets[w%len(targets)], opts...)
			state := uint64(cfg.seed) + uint64(w)*0x9e3779b97f4a7c15
			for i := 0; i < n; i++ {
				ep := picker.pick(splitmix(&state))
				enter()
				if i == 0 {
					ready.Done()
					<-start
				}
				t0 := time.Now()
				err := issue(ctx, c, ep, &state, shape)
				el := time.Since(t0).Seconds()
				inFlight.Add(-1)
				hists[ep].ObserveExemplar(el, lastCorr)
				total.ObserveExemplar(el, lastCorr)
				s := stats[ep]
				s.requests.Add(1)
				switch {
				case err == nil:
				case rdnsclient.IsRateLimited(err):
					s.rateLimited.Add(1)
				case rdnsclient.IsOverloaded(err):
					s.shed.Add(1)
				default:
					s.errors.Add(1)
				}
			}
		}(w, n)
	}
	ready.Wait()
	close(start)
	wg.Wait()

	res := &loadResult{
		Workers:      cfg.workers,
		Requests:     cfg.requests,
		PeakInFlight: peak.Load(),
	}
	for _, e := range endpointOrder {
		s := stats[e]
		if s.requests.Load() == 0 {
			continue
		}
		sm := obs.LoadSample{
			Label:       e,
			Requests:    s.requests.Load(),
			Errors:      s.errors.Load(),
			RateLimited: s.rateLimited.Load(),
			Shed:        s.shed.Load(),
			P50:         hists[e].Quantile(0.50),
			P95:         hists[e].Quantile(0.95),
			P99:         hists[e].Quantile(0.99),
		}
		if ex, ok := hists[e].Snapshot().QuantileExemplar(0.99); ok {
			sm.P99Corr = fmt.Sprintf("%016x", ex.Corr)
		}
		res.Samples = append(res.Samples, sm)
	}
	var sum obs.LoadSample
	sum.Label = "total"
	for _, s := range res.Samples {
		sum.Requests += s.Requests
		sum.Errors += s.Errors
		sum.RateLimited += s.RateLimited
		sum.Shed += s.Shed
	}
	sum.P50, sum.P95, sum.P99 = total.Quantile(0.50), total.Quantile(0.95), total.Quantile(0.99)
	if ex, ok := total.Snapshot().QuantileExemplar(0.99); ok {
		sum.P99Corr = fmt.Sprintf("%016x", ex.Corr)
	}
	res.Samples = append(res.Samples, sum)

	// After a live run, ask each replica target how far behind it ended
	// up: /v1/stats reports the syncer's lag, and the MaxReplicaLagBytes
	// rule judges it alongside the latency/error SLOs.
	res.Samples = append(res.Samples, lagSamples(ctx, targets, hc, stderr)...)
	res.Report = cfg.rules.EvaluateLoad(res.Samples)
	if cfg.trace {
		res.ExemplarChains = exemplarChains(cfg, res.Samples, stderr, clientTracer, srvTracer)
	}
	return res, nil
}

// exemplarChains answers "which query was the p99" end to end: it
// stitches every traced layer's spans (the workers' client tracer, the
// self-hosted server's tracer, and any -trace-dump sources) and renders
// the causal chain behind each sample's p99 exemplar.
func exemplarChains(cfg *loadConfig, samples []obs.LoadSample, stderr io.Writer, tracers ...*telemetry.Tracer) []string {
	// The tracers' rings go through their JSONL form, the records a
	// /trace dump serves, so in-process tracers and scraped dumps stitch
	// identically.
	var buf bytes.Buffer
	for _, t := range tracers {
		t.WriteJSONL(&buf)
	}
	recs, _ := telemetry.ReadSpans(&buf)
	if cfg.traceDump != "" {
		extra, err := dumpRecords(cfg.traceDump)
		if err != nil {
			fmt.Fprintf(stderr, "rdnsload: reading trace dumps: %v\n", err)
		}
		recs = append(recs, extra...)
	}
	byCorr := make(map[uint64]obs.Chain)
	for _, c := range obs.Stitch(recs) {
		byCorr[c.Corr] = c
	}
	var out []string
	for _, s := range samples {
		if s.P99Corr == "" {
			continue
		}
		var corr uint64
		fmt.Sscanf(s.P99Corr, "%x", &corr)
		c, ok := byCorr[corr]
		if !ok {
			// The span ring evicted it (run larger than the ring) or the
			// daemon's dump wasn't supplied; the ID still names the query.
			out = append(out, fmt.Sprintf("p99 %-8s corr %s (no spans retained)", s.Label, s.P99Corr))
			continue
		}
		out = append(out, fmt.Sprintf("p99 %-8s %s", s.Label, c.Render()))
	}
	return out
}

// dumpRecords reads the -trace-dump sources: comma-separated JSONL file
// paths or /trace URLs (a live daemon's metrics listener). A 204 means
// the daemon traced nothing — not an error.
func dumpRecords(spec string) ([]telemetry.SpanRecord, error) {
	var out []telemetry.SpanRecord
	for _, src := range obs.SplitList(spec) {
		var r io.ReadCloser
		if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
			resp, err := http.Get(src)
			if err != nil {
				return nil, fmt.Errorf("fetching %s: %w", src, err)
			}
			if resp.StatusCode == http.StatusNoContent {
				resp.Body.Close()
				continue
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				return nil, fmt.Errorf("fetching %s: status %d", src, resp.StatusCode)
			}
			r = resp.Body
		} else {
			f, err := os.Open(src)
			if err != nil {
				return nil, err
			}
			r = f
		}
		recs, err := telemetry.ReadSpans(r)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// lagSamples probes each target's /v1/stats after the run and turns
// replica lag reports into judgeable samples. Targets without a replica
// block (primaries, self-hosted servers) contribute nothing. A failed
// probe must not discard the completed run's data: it is logged and
// becomes a failing sample (one request, one error) so the error-rate
// rule flags it in the report.
func lagSamples(ctx context.Context, targets []string, hc *http.Client, stderr io.Writer) []obs.LoadSample {
	var out []obs.LoadSample
	for i, t := range targets {
		c := rdnsclient.New(t, rdnsclient.WithHTTPClient(hc))
		sr, err := c.Stats(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "rdnsload: probing %s/v1/stats for lag: %v\n", t, err)
			out = append(out, obs.LoadSample{
				Label:    fmt.Sprintf("lag:%d", i),
				Requests: 1,
				Errors:   1,
			})
			continue
		}
		if sr.Replica == nil {
			continue
		}
		out = append(out, obs.LoadSample{
			Label:       fmt.Sprintf("lag:%d", i),
			BytesBehind: sr.Replica.BytesBehind,
		})
	}
	return out
}

// servedShape is what the workload aims at, learned from what is served:
// the days, and the /24s, addresses and name tokens of every record of
// the newest day.
type servedShape struct {
	days     []time.Time
	prefixes []dnswire.Prefix
	addrs    []dnswire.IPv4
	tokens   []string
}

// learnShape asks c what it serves, walking every /v1/range page of the
// newest day.
func learnShape(ctx context.Context, c *rdnsclient.Client) (servedShape, error) {
	dr, err := c.Days(ctx)
	if err != nil {
		return servedShape{}, fmt.Errorf("probing /v1/days: %w", err)
	}
	if len(dr.Days) == 0 {
		return servedShape{}, fmt.Errorf("daemon serves an empty history")
	}
	newest := dr.Days[len(dr.Days)-1]
	shape := servedShape{days: dr.Days}
	seen := make(map[dnswire.Prefix]bool)
	it := c.Range(rdnsclient.RangeQuery{Prefix: "0.0.0.0/0", From: newest, To: newest, Limit: 1000})
	for it.Next(ctx) {
		for _, row := range it.Page().Rows {
			ip, err := dnswire.ParseIPv4(row.IP)
			if err != nil {
				return servedShape{}, fmt.Errorf("probing /v1/range: %w", err)
			}
			shape.addrs = append(shape.addrs, ip)
			if p := ip.Slash24(); !seen[p] {
				seen[p] = true
				shape.prefixes = append(shape.prefixes, p)
			}
			// The name index's first token of the name: the first label
			// up to its first '-'.
			label, _, _ := strings.Cut(strings.TrimLeft(row.PTR, "-"), ".")
			if tok, _, _ := strings.Cut(label, "-"); tok != "" {
				shape.tokens = append(shape.tokens, tok)
			}
		}
	}
	if err := it.Err(); err != nil {
		return servedShape{}, fmt.Errorf("probing /v1/range: %w", err)
	}
	if len(shape.addrs) == 0 {
		return servedShape{}, fmt.Errorf("the newest day, %s, holds no records", newest.Format(time.DateOnly))
	}
	return shape, nil
}

// issue sends one request of the given kind with seeded parameters drawn
// from the served shape.
func issue(ctx context.Context, c *rdnsclient.Client, ep string, state *uint64, shape servedShape) error {
	days := shape.days
	p := shape.prefixes[int(splitmix(state)%uint64(len(shape.prefixes)))]
	day := days[int(splitmix(state)%uint64(len(days)))]
	switch ep {
	case "at":
		ip := shape.addrs[int(splitmix(state)%uint64(len(shape.addrs)))]
		_, err := c.At(ctx, ip.String(), day)
		return err
	case "range":
		from := days[int(splitmix(state)%uint64(len(days)))]
		to := day
		if to.Before(from) {
			from, to = to, from
		}
		_, err := c.RangePage(ctx, rdnsclient.RangeQuery{
			Prefix: p.String(), From: from, To: to, Limit: 1000,
		}, "")
		return err
	case "churn":
		_, err := c.Churn(ctx, p.String(), days[0], day)
		return err
	case "name":
		if len(shape.tokens) == 0 {
			return fmt.Errorf("the newest day's names hold no token to search")
		}
		_, err := c.NamePage(ctx, rdnsclient.NameQuery{
			Token: shape.tokens[int(splitmix(state)%uint64(len(shape.tokens)))], Limit: 100,
		}, "")
		return err
	case "days":
		_, err := c.Days(ctx)
		return err
	case "stats":
		_, err := c.Stats(ctx)
		return err
	}
	return fmt.Errorf("unknown endpoint %q", ep)
}
