// Command rdnsvantage runs a seeded multi-vantage scan campaign over a
// simulated universe and renders the disagreement dashboard: N named
// vantage points sweep the same address space concurrently — each
// through its own fault profile, each appending to a history store of its
// own — and the analyzer classifies where
// their views diverge and how well each PTR change is corroborated
// across them (see docs/campaigns.md).
//
// The default fleet is the canonical three: alpha measures cleanly,
// bravo loses a slice of its queries (-loss, -servfail; one scan-level
// retry), charlie serves -lag of its answers from a view -lag-days old.
//
//	rdnsvantage -seed 42 -days 10
//	rdnsvantage -seed 42 -days 10 -loss 0.2 -lag 0.5
//	rdnsvantage -days 30 -store campaign   # keep campaign/{alpha,bravo,charlie} for rdnsd
//	rdnsvantage -json | jq .totals
//
// With -min-corroboration the campaign is held to the obs SLO rule: any
// day whose mean cross-vantage corroboration falls below the floor is a
// violation, and the process exits 1 when the error budget burns —
// wired for CI gates on measurement trustworthiness:
//
//	rdnsvantage -seed 42 -days 10 -min-corroboration 0.9 -budget 0.1
//
// Everything is deterministic: the same flags reproduce the same
// stores, report, digest, and verdicts bit-for-bit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/vantage"
)

func main() {
	seed := flag.Int64("seed", 42, "universe and vantage seed; same seed, same campaign")
	days := flag.Int("days", 10, "campaign length in days")
	loss := flag.Float64("loss", 0.05, "bravo's per-query loss rate")
	servfail := flag.Float64("servfail", 0.02, "bravo's per-query SERVFAIL rate")
	retries := flag.Int("retries", 2, "bravo's total lookups per address (retries re-roll faults)")
	lagRate := flag.Float64("lag", 0.3, "fraction of charlie's answers served from a stale view")
	lagDays := flag.Int("lag-days", 1, "how stale charlie's lagged answers are, in days")
	lagWindow := flag.Int("lag-window", 1, "analyzer agreement window in snapshots")
	filler := flag.Int("filler", 30, "filler /24s in the simulated universe")
	workers := flag.Int("workers", 4, "snapshot engine workers per vantage")
	storeDir := flag.String("store", "", "directory of the vantages' history stores, one per vantage in <dir>/<vantage> (default: a temp dir, removed on exit); serve a kept vantage's store with rdnsd")
	compactEvery := flag.Int("compact-every", 4, "seal each vantage's tail every N appends (0 = never)")
	minCorro := flag.Float64("min-corroboration", 0, "SLO floor for each day's mean corroboration (0 = rule off)")
	budget := flag.Float64("budget", 0, "fraction of days allowed to violate the SLO")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of the dashboard")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, campaignFlags{
		seed: *seed, days: *days, loss: *loss, servfail: *servfail,
		retries: *retries, lagRate: *lagRate, lagDays: *lagDays,
		lagWindow: *lagWindow, filler: *filler, workers: *workers,
		storeDir: *storeDir, compactEvery: *compactEvery,
		minCorro: *minCorro, budget: *budget, jsonOut: *jsonOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "rdnsvantage:", err)
		os.Exit(1)
	}
}

type campaignFlags struct {
	seed                       int64
	days, retries, lagDays     int
	lagWindow, filler, workers int
	compactEvery               int
	loss, servfail, lagRate    float64
	minCorro, budget           float64
	storeDir                   string
	jsonOut                    bool
}

// run runs the campaign the flags describe and writes its report to w.
func run(ctx context.Context, w io.Writer, f campaignFlags) error {
	if f.days < 1 {
		return fmt.Errorf("-days must be at least 1")
	}
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  uint64(f.seed),
		FillerSlash24s:        f.filler,
		LeakyNetworks:         4,
		NonLeakyDynamic:       1,
		PeoplePerDynamicBlock: 6,
	})
	if err != nil {
		return err
	}
	dir := f.storeDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "rdnsvantage-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(reg)
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	res, err := vantage.Run(ctx, vantage.Campaign{
		Universe: u,
		Start:    start,
		End:      start.AddDate(0, 0, f.days-1),
		Cadence:  scan.Daily,
		Workers:  f.workers,
		Vantages: []vantage.Vantage{
			{Name: "alpha", Seed: f.seed + 1},
			{
				Name: "bravo", Seed: f.seed + 2,
				Faults: []faultsim.Profile{{
					Prefix: dnswire.Prefix{}, // everywhere
					Loss:   f.loss, ServFailRate: f.servfail,
				}},
				Attempts: f.retries,
			},
			{Name: "charlie", Seed: f.seed + 3, LagRate: f.lagRate, LagDays: f.lagDays},
		},
		StoreDir:     dir,
		CompactEvery: f.compactEvery,
		LagWindow:    f.lagWindow,
		Telemetry:    reg,
		Observer:     rec,
	})
	if err != nil {
		return err
	}
	for _, vr := range res.Vantages {
		if vr.Err != nil {
			return fmt.Errorf("vantage %s: %w", vr.Name, vr.Err)
		}
	}

	if f.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Report)
	}
	res.Report.Render(w)
	if f.storeDir != "" {
		fmt.Fprintf(w, "\nstores kept at %s/{alpha,bravo,charlie} (serve one with: rdnsd -store %s)\n", dir, filepath.Join(dir, "alpha"))
	}

	if f.minCorro > 0 {
		rules := obs.Rules{
			// Only the corroboration rule: injected faults are the
			// experiment here, not an operational error to flag.
			MaxErrorRate:     -1,
			MaxBreakerOpens:  -1,
			MaxRetryRate:     -1,
			MinCorroboration: f.minCorro,
			ErrorBudget:      f.budget,
		}
		slo := rules.Evaluate(rec.Frames())
		fmt.Fprintf(w, "\nSLO: min corroboration %.2f, budget %.0f%%\n%s",
			f.minCorro, f.budget*100, slo.Summary())
		if !slo.BudgetOK {
			return fmt.Errorf("corroboration SLO budget exceeded")
		}
	}
	return nil
}
