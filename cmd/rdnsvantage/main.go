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
	"syscall"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, runs the campaign they describe
// until it ends or ctx does, writes the report to stdout and errors to
// stderr, and returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdnsvantage", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "universe and vantage seed; same seed, same campaign")
	days := fs.Int("days", 10, "campaign length in days")
	loss := fs.Float64("loss", 0.05, "bravo's per-query loss rate")
	servfail := fs.Float64("servfail", 0.02, "bravo's per-query SERVFAIL rate")
	retries := fs.Int("retries", 2, "bravo's total lookups per address (retries re-roll faults)")
	lagRate := fs.Float64("lag", 0.3, "fraction of charlie's answers served from a stale view")
	lagDays := fs.Int("lag-days", 1, "how stale charlie's lagged answers are, in days")
	lagWindow := fs.Int("lag-window", 1, "analyzer agreement window in snapshots")
	filler := fs.Int("filler", 30, "filler /24s in the simulated universe")
	workers := fs.Int("workers", 4, "snapshot engine workers per vantage")
	storeDir := fs.String("store", "", "directory of the vantages' history stores, one per vantage in <dir>/<vantage> (default: a temp dir, removed on exit); serve a kept vantage's store with rdnsd")
	compactEvery := fs.Int("compact-every", 4, "seal each vantage's tail every N appends (0 = never)")
	minCorro := fs.Float64("min-corroboration", 0, "SLO floor for each day's mean corroboration (0 = rule off)")
	budget := fs.Float64("budget", 0, "fraction of days allowed to violate the SLO")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of the dashboard")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *days < 1 {
		fmt.Fprintln(stderr, "rdnsvantage: -days must be at least 1")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rdnsvantage:", err)
		return 1
	}

	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  uint64(*seed),
		FillerSlash24s:        *filler,
		LeakyNetworks:         4,
		NonLeakyDynamic:       1,
		PeoplePerDynamicBlock: 6,
	})
	if err != nil {
		return fail(err)
	}
	dir := *storeDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "rdnsvantage-*")
		if err != nil {
			return fail(err)
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
		End:      start.AddDate(0, 0, *days-1),
		Cadence:  scan.Daily,
		Workers:  *workers,
		Vantages: []vantage.Vantage{
			{Name: "alpha", Seed: *seed + 1},
			{
				Name: "bravo", Seed: *seed + 2,
				Faults: []faultsim.Profile{{
					Prefix: dnswire.Prefix{}, // everywhere
					Loss:   *loss, ServFailRate: *servfail,
				}},
				Attempts: *retries,
			},
			{Name: "charlie", Seed: *seed + 3, LagRate: *lagRate, LagDays: *lagDays},
		},
		StoreDir:     dir,
		CompactEvery: *compactEvery,
		LagWindow:    *lagWindow,
		Telemetry:    reg,
		Observer:     rec,
	})
	if err != nil {
		return fail(err)
	}
	for _, vr := range res.Vantages {
		if vr.Err != nil {
			return fail(fmt.Errorf("vantage %s: %w", vr.Name, vr.Err))
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Report); err != nil {
			return fail(err)
		}
		return 0
	}
	res.Report.Render(stdout)
	if *storeDir != "" {
		fmt.Fprintf(stdout, "\nstores kept at %s/{alpha,bravo,charlie} (serve one with: rdnsd -store %s)\n", dir, filepath.Join(dir, "alpha"))
	}

	if *minCorro > 0 {
		rules := obs.Rules{
			// Only the corroboration rule: injected faults are the
			// experiment here, not an operational error to flag.
			MaxErrorRate:     -1,
			MaxBreakerOpens:  -1,
			MaxRetryRate:     -1,
			MinCorroboration: *minCorro,
			ErrorBudget:      *budget,
		}
		slo := rules.Evaluate(rec.Frames())
		fmt.Fprintf(stdout, "\nSLO: min corroboration %.2f, budget %.0f%%\n%s",
			*minCorro, *budget*100, slo.Summary())
		if !slo.BudgetOK {
			return fail(fmt.Errorf("corroboration SLO budget exceeded"))
		}
	}
	return 0
}
