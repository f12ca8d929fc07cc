package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/textplot"
)

// monConfig is one monitoring run's parameters (see main for the flags).
type monConfig struct {
	// targets are the daemons' API base URLs.
	targets []string
	// metrics optionally lists each daemon's Prometheus text URL (same
	// order as targets); empty skips the metrics scrape.
	metrics []string
	// rounds and interval shape the polling window: deltas between the
	// first and last round turn cumulative counters into rates.
	rounds   int
	interval time.Duration
	rules    obs.LoadRules
	jsonOut  bool
	// hc overrides the HTTP client (tests drive in-process handlers).
	hc *http.Client
}

// pollRound is one round's scrape of every target; errs[i] is nil when
// target i answered.
type pollRound struct {
	at    time.Time
	stats []rdnsclient.StatsResponse
	errs  []error
}

// monResult is the run's JSON output shape.
type monResult struct {
	Targets []string         `json:"targets"`
	Rounds  int              `json:"rounds"`
	Window  float64          `json:"window_seconds"`
	Samples []obs.LoadSample `json:"samples"`
	Report  obs.LoadReport   `json:"report"`
}

// run polls the fleet, renders the dashboard, evaluates the SLO rules,
// and returns the process exit code: 0 within SLO, 1 on a breach or an
// unreachable daemon, 2 on a usage error.
func run(cfg *monConfig, stdout, stderr io.Writer) int {
	if len(cfg.targets) == 0 {
		fmt.Fprintln(stderr, "rdnsmon: no targets (use -targets url[,url...])")
		return 2
	}
	if len(cfg.metrics) > 0 && len(cfg.metrics) != len(cfg.targets) {
		fmt.Fprintln(stderr, "rdnsmon: -metrics must list one URL per target")
		return 2
	}
	if cfg.rounds < 1 {
		fmt.Fprintln(stderr, "rdnsmon: need -rounds >= 1")
		return 2
	}
	if cfg.hc == nil {
		cfg.hc = &http.Client{Timeout: 10 * time.Second}
	}

	clients := make([]*rdnsclient.Client, len(cfg.targets))
	for i, t := range cfg.targets {
		// No retries: a daemon pushing back right now is a finding, not
		// something to smooth over.
		clients[i] = rdnsclient.New(t, rdnsclient.WithHTTPClient(cfg.hc), rdnsclient.WithRetries(0, 0))
	}

	rounds := make([]pollRound, 0, cfg.rounds)
	for r := 0; r < cfg.rounds; r++ {
		if r > 0 && cfg.interval > 0 {
			time.Sleep(cfg.interval)
		}
		pr := pollRound{
			at:    time.Now(),
			stats: make([]rdnsclient.StatsResponse, len(clients)),
			errs:  make([]error, len(clients)),
		}
		for i, c := range clients {
			pr.stats[i], pr.errs[i] = c.Stats(context.Background())
		}
		rounds = append(rounds, pr)
	}

	samples := fleetSamples(cfg, rounds)
	report := cfg.rules.EvaluateLoad(samples)
	window := rounds[len(rounds)-1].at.Sub(rounds[0].at).Seconds()

	if cfg.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(monResult{
			Targets: cfg.targets,
			Rounds:  cfg.rounds,
			Window:  window,
			Samples: samples,
			Report:  report,
		})
	} else {
		dashboard(stdout, cfg, rounds, samples, window)
		fmt.Fprint(stdout, report.Summary())
	}

	last := rounds[len(rounds)-1]
	for i := range cfg.targets {
		if last.errs[i] != nil {
			fmt.Fprintf(stderr, "rdnsmon: %s unreachable: %v\n", cfg.targets[i], last.errs[i])
		}
	}
	if !report.OK {
		fmt.Fprintf(stderr, "rdnsmon: OUT OF SLO (%d/%d samples violating)\n",
			report.ViolatingSamples, len(report.Verdicts))
		return 1
	}
	fmt.Fprintf(stderr, "rdnsmon: within SLO (%d samples)\n", len(report.Verdicts))
	return 0
}

// outcomeTotals sums a daemon's per-endpoint outcome counters. ok is
// false when the daemon exposes none (telemetry off) — callers fall back
// to the admission counters.
func outcomeTotals(sr rdnsclient.StatsResponse) (req, errs uint64, ok bool) {
	if len(sr.Endpoints) == 0 {
		return 0, 0, false
	}
	for _, ep := range sr.Endpoints {
		req += ep.OK + ep.Errors + ep.Canceled + ep.Rejected
		errs += ep.Errors
	}
	return req, errs, true
}

// fleetSamples turns the polling window into one judgeable LoadSample per
// target plus a fleet total: request/error/pushback counts are the delta
// between the first and last successful polls (cumulative counters →
// window rates), latency quantiles and exemplars are the daemon's own
// histogram as of the last poll, and replica lag is the last report. An
// unreachable target contributes a failing sample (one request, one
// error) so the error-rate rule flags it.
func fleetSamples(cfg *monConfig, rounds []pollRound) []obs.LoadSample {
	first, last := rounds[0], rounds[len(rounds)-1]
	var out []obs.LoadSample
	var fleet obs.LoadSample
	fleet.Label = "fleet"
	for i := range cfg.targets {
		label := fmt.Sprintf("d%d", i)
		if last.errs[i] != nil {
			out = append(out, obs.LoadSample{Label: label, Requests: 1, Errors: 1})
			fleet.Requests++
			fleet.Errors++
			continue
		}
		cur := last.stats[i]
		s := obs.LoadSample{Label: label}
		req, errs, hasOutcomes := outcomeTotals(cur)
		adm := cur.Admission
		if !hasOutcomes {
			req = adm.Admitted + adm.RateLimited + adm.Denied + adm.Shed
		}
		s.Requests, s.Errors = req, errs
		s.RateLimited, s.Shed = adm.RateLimited, adm.Shed
		if first.errs[i] == nil && len(rounds) > 1 {
			base := first.stats[i]
			breq, berrs, _ := outcomeTotals(base)
			if !hasOutcomes {
				badm := base.Admission
				breq = badm.Admitted + badm.RateLimited + badm.Denied + badm.Shed
			}
			s.Requests -= min(breq, s.Requests)
			s.Errors -= min(berrs, s.Errors)
			s.RateLimited -= min(base.Admission.RateLimited, s.RateLimited)
			s.Shed -= min(base.Admission.Shed, s.Shed)
		}
		s.P50, s.P95, s.P99 = cur.Latency.P50, cur.Latency.P95, cur.Latency.P99
		s.P99Corr = cur.Latency.P99Corr
		if cur.Replica != nil {
			s.BytesBehind = cur.Replica.BytesBehind
		}
		out = append(out, s)
		fleet.Requests += s.Requests
		fleet.Errors += s.Errors
		fleet.RateLimited += s.RateLimited
		fleet.Shed += s.Shed
		if s.P95 > fleet.P95 {
			fleet.P95 = s.P95
		}
		if s.P99 > fleet.P99 {
			fleet.P99 = s.P99
			fleet.P99Corr = s.P99Corr
		}
		if s.BytesBehind > fleet.BytesBehind {
			fleet.BytesBehind = s.BytesBehind
		}
	}
	out = append(out, fleet)
	return out
}

// dashboard renders the fleet state: a legend mapping the short daemon
// labels to their URLs, the per-daemon status table, a qps bar chart,
// and the per-round p99 progression.
func dashboard(w io.Writer, cfg *monConfig, rounds []pollRound, samples []obs.LoadSample, window float64) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	last := rounds[len(rounds)-1]
	fmt.Fprintf(bw, "rdnsmon: %d daemons, %d rounds over %.1fs\n", len(cfg.targets), len(rounds), window)
	for i, t := range cfg.targets {
		fmt.Fprintf(bw, "  d%d = %s\n", i, t)
	}
	fmt.Fprintln(bw)

	headers := []string{"daemon", "gen", "qps", "p50ms", "p95ms", "p99ms", "p99 corr", "err%", "shed%", "lag", "store"}
	if len(cfg.metrics) > 0 {
		headers = append(headers, "series")
	}
	var rows [][]string
	var bars []textplot.BarItem
	for i := range cfg.targets {
		label := fmt.Sprintf("d%d", i)
		if last.errs[i] != nil {
			row := []string{label, "-", "-", "-", "-", "-", "-", "-", "-", "-", "unreachable"}
			if len(cfg.metrics) > 0 {
				row = append(row, "-")
			}
			rows = append(rows, row)
			bars = append(bars, textplot.BarItem{Label: label})
			continue
		}
		cur := last.stats[i]
		s := samples[i]
		qps := 0.0
		if window > 0 {
			qps = float64(s.Requests) / window
		}
		corr := cur.Latency.P99Corr
		if len(corr) > 8 {
			corr = corr[:8] + "…"
		}
		lag := "-"
		if cur.Replica != nil {
			lag = fmt.Sprintf("%dB", cur.Replica.BytesBehind)
		}
		row := []string{
			label,
			fmt.Sprintf("%d", cur.Generation),
			fmt.Sprintf("%.1f", qps),
			fmt.Sprintf("%.2f", cur.Latency.P50*1e3),
			fmt.Sprintf("%.2f", cur.Latency.P95*1e3),
			fmt.Sprintf("%.2f", cur.Latency.P99*1e3),
			corr,
			fmt.Sprintf("%.2f", s.ErrorRate()*100),
			fmt.Sprintf("%.2f", s.ShedRate()*100),
			lag,
			fmt.Sprintf("%d segments", cur.Store.Segments),
		}
		if len(cfg.metrics) > 0 {
			row = append(row, metricsSeries(cfg, i))
		}
		rows = append(rows, row)
		bars = append(bars, textplot.BarItem{Label: label, Value: qps})
	}
	textplot.Table(bw, "fleet status", headers, rows)

	textplot.Bars(bw, "qps by daemon", bars, textplot.BarsOptions{Width: 40})

	if len(rounds) > 1 {
		headers := []string{"daemon"}
		for r := range rounds {
			headers = append(headers, fmt.Sprintf("r%d p99ms", r))
		}
		var rows [][]string
		for i := range cfg.targets {
			row := []string{fmt.Sprintf("d%d", i)}
			for _, pr := range rounds {
				if pr.errs[i] == nil {
					row = append(row, fmt.Sprintf("%.2f", pr.stats[i].Latency.P99*1e3))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
		textplot.Table(bw, "p99 by round", headers, rows)
	}
}

// metricsSeries scrapes one daemon's Prometheus text page and reports
// its series count — a cheap liveness-and-shape check on the metrics
// listener ("err" when unreachable).
func metricsSeries(cfg *monConfig, i int) string {
	resp, err := cfg.hc.Get(cfg.metrics[i])
	if err != nil {
		return "err"
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("http %d", resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return fmt.Sprintf("%d", n)
}
