// Command reactive runs the Section 6 supplemental measurement against a
// simulated set of networks: hourly ICMP sweeps, reactive back-off probing,
// and reverse-DNS follow-up, then prints the Table 3/4/5 summaries and the
// Figure 7 timing analysis.
//
//	reactive [-days 7] [-people 16] [-seed 42]
//
// With -metrics-addr the run serves its live telemetry over HTTP
// (/metrics, /debug/vars, /debug/pprof/, /trace) while the measurement is
// in progress, and the span log carries the correlated
// client→fabric→server chains docs/observability.md describes:
//
//	reactive -days 7 -metrics-addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/telemetry"
)

func main() {
	days := flag.Int("days", 7, "measurement window in days")
	people := flag.Int("people", 16, "people per dynamic /24 (population scale)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	metricsAddr := flag.String("metrics-addr", "", "serve telemetry over HTTP on this address while the measurement runs (see docs/observability.md)")
	flag.Parse()

	start := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	cfg := core.Config{
		Seed: *seed,
		Universe: netsim.UniverseConfig{
			FillerSlash24s:        400,
			LeakyNetworks:         12,
			NonLeakyDynamic:       2,
			PeoplePerDynamicBlock: *people,
		},
		LeakThresholds:    privleak.Config{MinUniqueNames: 8, MinRatio: 0.02},
		SupplementalStart: start,
		SupplementalEnd:   start.AddDate(0, 0, *days),
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		tracer := telemetry.NewTracer(int64(*seed), 0)
		cfg.Telemetry = reg
		cfg.Tracer = tracer
		exporter := telemetry.NewExporter(reg, telemetry.WithExporterTracer(tracer))
		addr, err := exporter.Start(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		defer exporter.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("running supplemental measurement: %d days over the nine networks...\n\n", *days)
	for _, id := range []string{"table2", "table3", "table4", "table5", "fig6", "fig7a", "fig7b"} {
		r, err := study.RunExperiment(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r.Render(os.Stdout)
	}
}
