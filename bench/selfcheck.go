package main

import (
	"fmt"
	"io"
	"math"
)

// lateLimitUS voids an open-loop run whose generator could not keep its
// schedule: the median request was handed over this late, so the numbers
// would describe the generator, not rdnsd.
const lateLimitUS = 1000

// selfcheckRuns is the number of runs per workload and set, the count the
// driver judges the benchmark on; the spreads in README.md are of ten.
const selfcheckRuns = 10

// judgement is selfcheck's reading of one metric on one workload.
type judgement struct {
	m1, m2, s1, s2 float64 // medians and quartile spreads of the two sets
	drift          float64 // (m2 - m1) / m1
	verdict        string  // "ok", "SPREAD" or "DRIFT"
}

// judge holds two sets of runs of the same build against a metric's bound.
func judge(d metricDef, a, b []float64) judgement {
	j := judgement{m1: median(a), m2: median(b), s1: quartileSpread(a), s2: quartileSpread(b), verdict: "ok"}
	j.drift = ratio(j.m2-j.m1, j.m1)
	if d.Name != "setup_s" && (j.s1 > d.Bound || j.s2 > d.Bound) {
		j.verdict = "SPREAD"
	}
	if math.Abs(j.drift) > d.Bound {
		j.verdict = "DRIFT"
	}
	return j
}

// selfcheck runs two sets of selfcheckRuns untraced runs per workload and
// judges every end-to-end metric against its bound in BENCHMARK.json:
// within a set, the distance between the first and third quartile as a
// share of the median (setup_s excepted); between the sets, the distance
// between the medians in either direction — both sets are this build, so a
// faster second set is as much a failure to repeat as a slower one. The
// sets run on the same seeds and interleaved, run by run, alternating which
// goes first, so the medians differ by neither the inputs nor a slow phase
// of the host. A pair of metric and workload that fails is demoted to a
// per-layer row (README.md records each decision), not given a wider bound.
func selfcheck(o options, stdout, stderr io.Writer) int {
	type cell struct{ sets [2][]float64 }
	table := make(map[string]map[string]*cell) // workload → metric → values
	failed := false
	for _, w := range workloads {
		table[w.Name] = make(map[string]*cell)
		for run := 0; run < selfcheckRuns; run++ {
			seed := o.seed + uint64(run)
			for i := 0; i < 2; i++ {
				set := (run + i) % 2
				r, err := childRun(o, w.Name, seed, 0, io.Discard, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
					failed = true
					continue
				}
				if late, ok := r.Metrics["bench.late_p50_us"]; ok && late.Value > lateLimitUS {
					fmt.Fprintf(stdout, "%s seed %d: VOID, the open loop ran %.0f us late at the median (limit %d)\n", w.Name, seed, late.Value, lateLimitUS)
					failed = true
					continue
				}
				for _, d := range catalogue {
					if !d.endToEnd() {
						continue
					}
					c := table[w.Name][d.Name]
					if c == nil {
						c = &cell{}
						table[w.Name][d.Name] = c
					}
					c.sets[set] = append(c.sets[set], r.Metrics[d.Name].Value)
				}
				fmt.Fprintf(stdout, "set %d %s seed %d done\n", set+1, w.Name, seed)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-16s %-12s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "drift", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range catalogue {
			if !d.endToEnd() {
				continue
			}
			c := table[w.Name][d.Name]
			if c == nil || len(c.sets[0]) == 0 || len(c.sets[1]) == 0 {
				continue
			}
			j := judge(d, c.sets[0], c.sets[1])
			if j.verdict != "ok" {
				failed = true
			}
			fmt.Fprintf(stdout, "%-16s %-12s %14.4f %14.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, j.m1, j.m2, 100*j.s1, 100*j.s2, 100*j.drift, 100*d.Bound, j.verdict)
		}
	}
	if failed {
		fmt.Fprintln(stdout, "\na pair marked SPREAD or DRIFT does not repeat within its bound: demote it, do not widen the bound")
		return 1
	}
	return 0
}
