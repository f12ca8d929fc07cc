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
	"flag"
	"fmt"
	"os"
	"strings"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/telemetry"
)

func main() {
	scale := flag.String("scale", "small", "universe scale: tiny, small, or full")
	seed := flag.Uint64("seed", 42, "simulation seed")
	exp := flag.String("exp", "all", "experiment to run: all, or one of "+
		strings.Join(core.ExperimentIDs(), ", "))
	trace := flag.String("trace", "", "summarize a span log written by `rdnsscan -trace-out` or `experiments -trace-out` instead of running experiments")
	obsIn := flag.String("obs", "", "summarize a campaign frame dump written by `rdnsscan -obs-out` or `experiments -obs-out` instead of running experiments")
	metricsAddr := flag.String("metrics-addr", "", "serve the study's telemetry over HTTP on this address while experiments run (see docs/observability.md)")
	traceOut := flag.String("trace-out", "", "write the supplemental run's correlated span log to this file as JSONL")
	obsOut := flag.String("obs-out", "", "write one observability frame per campaign snapshot to this file as JSONL")
	flag.Parse()

	if *trace != "" {
		if err := runTraceSummary(*trace, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *obsIn != "" {
		if err := runObsSummary(*obsIn, int64(*seed), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg, err := configForScale(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
				fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
				os.Exit(1)
			}
			defer exporter.Close()
			fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
		}
	}

	fmt.Printf("Building %s-scale universe (seed %d)...\n", *scale, *seed)
	study, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Universe: %d networks, %d filler /24s\n\n",
		len(study.Universe.Networks), len(study.Universe.Filler))

	if *exp == "all" {
		err = study.RunAll(os.Stdout)
	} else {
		var r core.Renderer
		r, err = study.RunExperiment(*exp)
		if err == nil {
			r.Render(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dumpSpans(tracer, *traceOut)
	dumpFrames(recorder, *obsOut)
}

// dumpSpans writes the study tracer's span log as JSONL — the input of
// `experiments -trace`.
func dumpSpans(tracer *telemetry.Tracer, path string) {
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

// dumpFrames writes the captured campaign frames as JSONL — the input of
// `experiments -obs`.
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
