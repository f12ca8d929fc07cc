// Command experiments regenerates every table and figure of the paper's
// evaluation against the simulated universe.
//
// Usage:
//
//	experiments [-scale tiny|small|full] [-seed N] [-exp all|table1|fig1|...]
//
// The default small scale runs the full pipeline in well under a minute;
// -scale full builds the 1/100-scale universe documented in DESIGN.md
// (60,000 filler /24s, 197 leaking networks) and takes several minutes,
// dominated by the whole-universe daily campaign behind Table 1.
//
// With -trace it instead summarizes a sweep span log written by
// `rdnsscan -trace-out` or `experiments -trace-out` (probe outcome mix,
// breaker transitions, slowest shards, and — when the log carries
// correlated spans — the stitched client→fabric→server causal chains; see
// docs/observability.md):
//
//	experiments -trace sweep.jsonl
//
// With -obs it summarizes a campaign frame dump written by
// `rdnsscan -obs-out` or `experiments -obs-out`: per-frame SLO verdicts
// under the default rules, error-budget accounting, and anomaly flags
// (see docs/observability.md):
//
//	experiments -obs frames.jsonl
//
// While experiments run, -metrics-addr serves the study's live telemetry
// over HTTP (/metrics, /debug/vars, /debug/pprof/, /trace), -trace-out
// writes the correlated span log of the supplemental run, and -obs-out
// writes one observability frame per campaign snapshot:
//
//	experiments -scale tiny -metrics-addr 127.0.0.1:9090 -trace-out spans.jsonl -obs-out frames.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/telemetry"
)

// main leaves SIGINT and SIGTERM their default action, ending the
// process: an experiment cannot stop midway (core.Study takes no context).
func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// errors to stderr, and returns the exit status. It has the other role
// commands' signature; the study does not consult the context.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "universe scale: tiny, small, or full")
	seed := fs.Uint64("seed", 42, "simulation seed")
	exp := fs.String("exp", "all", "experiment to run: all, or one of "+
		strings.Join(core.ExperimentIDs(), ", "))
	trace := fs.String("trace", "", "summarize a span log written by `rdnsscan -trace-out` or `experiments -trace-out` instead of running experiments")
	obsIn := fs.String("obs", "", "summarize a campaign frame dump written by `rdnsscan -obs-out` or `experiments -obs-out` instead of running experiments")
	metricsAddr := fs.String("metrics-addr", "", "serve the study's telemetry over HTTP on this address while experiments run (see docs/observability.md)")
	traceOut := fs.String("trace-out", "", "write the supplemental run's correlated span log to this file as JSONL")
	obsOut := fs.String("obs-out", "", "write one observability frame per campaign snapshot to this file as JSONL")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *trace != "" || *obsIn != "" {
		var err error
		if *trace != "" {
			err = runTraceSummary(*trace, stdout)
		} else {
			err = runObsSummary(*obsIn, int64(*seed), stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	cfg, err := configForScale(*scale, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *exp != "all" && !slices.Contains(core.ExperimentIDs(), *exp) {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *exp)
		return 2
	}

	var tracer *telemetry.Tracer
	var recorder *obs.Recorder
	if *metricsAddr != "" || *traceOut != "" || *obsOut != "" {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		if *traceOut != "" || *metricsAddr != "" {
			tracer = telemetry.NewTracer(int64(*seed), 0)
			cfg.Tracer = tracer
		}
		if *obsOut != "" {
			recorder = obs.NewRecorder(reg)
			cfg.Observer = recorder
		}
		if *metricsAddr != "" {
			exporter := telemetry.NewExporter(reg, telemetry.WithExporterTracer(tracer))
			addr, err := exporter.Start(*metricsAddr)
			if err != nil {
				fmt.Fprintf(stderr, "metrics endpoint: %v\n", err)
				return 1
			}
			defer exporter.Close()
			fmt.Fprintf(stderr, "telemetry: http://%s/metrics\n", addr)
		}
	}

	if err := runStudy(cfg, *scale, *exp, stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	obs.WriteDumps(stderr, tracer, *traceOut, recorder, *obsOut)
	return 0
}

// runStudy builds the universe cfg describes and writes the experiment exp
// (or all of them) to w.
func runStudy(cfg core.Config, scale, exp string, w io.Writer) error {
	fmt.Fprintf(w, "Building %s-scale universe (seed %d)...\n", scale, cfg.Seed)
	study, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Universe: %d networks, %d filler /24s\n\n",
		len(study.Universe.Networks), len(study.Universe.Filler))
	if exp == "all" {
		return study.RunAll(w)
	}
	r, err := study.RunExperiment(exp)
	if err != nil {
		return err
	}
	r.Render(w)
	return nil
}

// configForScale maps a scale name to a study configuration.
func configForScale(scale string, seed uint64) (core.Config, error) {
	cfg := core.Config{Seed: seed}
	switch scale {
	case "tiny":
		cfg.Universe = netsim.UniverseConfig{
			FillerSlash24s:        600,
			LeakyNetworks:         12,
			NonLeakyDynamic:       3,
			PeoplePerDynamicBlock: 16,
		}
		cfg.LeakThresholds = privleak.Config{MinUniqueNames: 8, MinRatio: 0.02}
	case "small":
		cfg.Universe = netsim.UniverseConfig{
			FillerSlash24s:        6000,
			LeakyNetworks:         60,
			NonLeakyDynamic:       16,
			PeoplePerDynamicBlock: 30,
		}
		cfg.LeakThresholds = privleak.Config{MinUniqueNames: 12, MinRatio: 0.02}
	case "full":
		// Defaults: the 1/100-scale universe.
	default:
		return cfg, fmt.Errorf("unknown scale %q (tiny, small, full)", scale)
	}
	return cfg, nil
}
