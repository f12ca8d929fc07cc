// Command dynfind runs the Section 4 dynamicity heuristic over a CSV of
// reverse-DNS observations (date,ip,ptr — the format cmd/rdnsscan and the
// dataset package produce) and reports which /24 prefixes expose dynamic
// client behaviour.
//
//	dynfind -input observations.csv [-x 10] [-y 7] [-min 10]
//
// With -demo it instead generates a ground-truth campus (the paper's
// Section 4.1 validation network), scans it for three simulated months and
// validates the heuristic against the known numbering plan.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/telemetry"
)

func main() {
	input := flag.String("input", "", "CSV of date,ip,ptr observations")
	x := flag.Float64("x", 10, "change percentage threshold X")
	y := flag.Int("y", 7, "minimum change days Y")
	minAddr := flag.Int("min", 10, "minimum daily addresses to consider a /24")
	demo := flag.Bool("demo", false, "run the ground-truth validation demo instead")
	seed := flag.Uint64("seed", 7, "demo seed")
	workers := flag.Int("workers", 0, "snapshot engine workers for -demo (0 = GOMAXPROCS)")
	metricsAddr := flag.String("metrics-addr", "", "serve the -demo campaign's telemetry over HTTP on this address (/metrics, /debug/vars, /debug/pprof/; see docs/observability.md)")
	flag.Parse()

	cfg := dynamicity.Config{MinAddresses: *minAddr, ChangePercent: *x, MinChangeDays: *y}
	if *demo {
		var sink telemetry.Sink
		if *metricsAddr != "" {
			reg := telemetry.NewRegistry()
			exp := telemetry.NewExporter(reg)
			addr, err := exp.Start(*metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
				os.Exit(1)
			}
			defer exp.Close()
			fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
			sink = reg
		}
		runDemo(cfg, *seed, *workers, sink)
		return
	}
	if *input == "" {
		fmt.Fprintln(os.Stderr, "need -input or -demo")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*input)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	series, err := seriesFromCSV(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(dynamicity.Analyze(series, cfg))
}

// seriesFromCSV streams the observations once, deduplicating per
// (date, address), and builds the per-/24 daily unique-address counts.
// Only the dedup sets are held, never the row slice.
func seriesFromCSV(r io.Reader) (*dataset.CountSeries, error) {
	perDay := map[time.Time]map[dnswire.IPv4]bool{}
	err := dataset.ScanRows(r, func(row dataset.Row) error {
		ips := perDay[row.Date]
		if ips == nil {
			ips = map[dnswire.IPv4]bool{}
			perDay[row.Date] = ips
		}
		ips[row.IP] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	days := make([]time.Time, 0, len(perDay))
	for d := range perDay {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	series := dataset.NewCountSeries(days)
	for i, d := range days {
		for ip := range perDay[d] {
			series.Add(ip.Slash24(), i, 1)
		}
	}
	return series, nil
}

func report(res *dynamicity.Result) {
	fmt.Printf("/24s with PTRs: %d; considered: %d; dynamic: %d\n",
		res.TotalPrefixes, res.ConsideredPrefixes, len(res.DynamicPrefixes))
	fmt.Println("prefix,max_daily,change_days")
	for _, p := range res.DynamicPrefixes {
		v := res.Verdicts[p]
		fmt.Printf("%s,%d,%d\n", p, v.MaxDaily, v.ChangeDays)
	}
}

func runDemo(cfg dynamicity.Config, seed uint64, workers int, sink telemetry.Sink) {
	campus, truth, err := netsim.BuildValidationCampus(seed, time.UTC)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	u := &netsim.Universe{Networks: []*netsim.Network{campus}}
	res := scan.Run(scan.Campaign{
		Universe:  u,
		Start:     time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:       time.Date(2021, 3, 31, 0, 0, 0, 0, time.UTC),
		Cadence:   scan.Daily,
		Workers:   workers,
		Telemetry: sink,
	})
	verdict := dynamicity.Analyze(res.Series, cfg)
	flagged := map[dnswire.Prefix]bool{}
	for _, p := range verdict.DynamicPrefixes {
		flagged[p] = true
	}
	tp, fn := 0, 0
	for _, p := range truth["dynamic"] {
		if flagged[p] {
			tp++
		} else {
			fn++
		}
		delete(flagged, p)
	}
	fmt.Printf("ground-truth campus: %d dynamic, %d dhcp-but-static, %d static, %d empty /24s\n",
		len(truth["dynamic"]), len(truth["dhcp-static"]), len(truth["static"]), len(truth["empty"]))
	fmt.Printf("heuristic (X=%.0f%%, Y=%d): %d flagged dynamic\n",
		cfg.ChangePercent, cfg.MinChangeDays, len(verdict.DynamicPrefixes))
	fmt.Printf("true positives: %d, false negatives: %d, false positives: %d\n",
		tp, fn, len(flagged))
	fmt.Println("(paper validation: 40 dynamic prefixes found, 83 DHCP-but-static correctly not flagged)")
}
