// Command benchcheck guards the scan engine's benchmarks against
// performance regressions. It reads `go test -bench` output on stdin,
// extracts every benchmark result into a JSON report, and compares ns/op
// against a checked-in baseline, failing (exit 1) when any shared
// benchmark regressed by more than the allowed fraction or a baseline
// benchmark was not measured at all. A benchmark that reports no ns/op
// (b.ReportMetric(0, "ns/op"): its time is the host's, not the code's) is
// held to its gated extras only.
//
// Usage (wired up as `make bench-check`):
//
//	go test -run '^$' -bench 'BenchmarkScanEngineFullSweep' . |
//	    go run ./cmd/benchcheck -baseline BENCH_baseline.json -out BENCH_scan.json
//
// To re-baseline after an intentional performance change, copy the fresh
// report over the baseline:
//
//	cp BENCH_scan.json BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"rdnsprivacy/internal/obs"
)

// Result is one benchmark line, normalized.
type Result struct {
	Name string  `json:"name"`                // full name including sub-benchmark and GOMAXPROCS suffix
	Runs int     `json:"runs"`                // iteration count go test settled on
	NsOp float64 `json:"ns_per_op,omitempty"` // absent (zero) when the benchmark suppresses it
	// Extra carries any further "value unit" pairs from the line
	// (B/op, allocs/op, custom metrics like queries/s or p99-ns/op).
	// Besides ns/op, only units named in -gate-extras are gated.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON document written to -out and read from -baseline.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline report to compare against (no comparison when empty or missing)")
	outPath := flag.String("out", "", "where to write the fresh report (stdout when empty)")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum allowed fractional ns/op regression vs baseline")
	gateExtras := flag.String("gate-extras", "", "comma-separated extra-metric units (e.g. p99-ns/op) to gate at the same threshold")
	flag.Parse()

	report, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("parsing bench output: %v", err)
	}
	if len(report.Benchmarks) == 0 {
		fatalf("no benchmark results on stdin — did the bench run fail?")
	}

	if err := writeReport(report, *outPath); err != nil {
		fatalf("writing report: %v", err)
	}

	if *baselinePath == "" {
		return
	}
	baseline, err := readReport(*baselinePath)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "benchcheck: no baseline at %s; skipping comparison (copy the report there to create one)\n", *baselinePath)
		return
	}
	if err != nil {
		fatalf("reading baseline: %v", err)
	}

	failed := compare(os.Stdout, baseline, report, *maxRegress, obs.SplitList(*gateExtras))
	if failed {
		os.Exit(1)
	}
}

// parseBench extracts benchmark result lines from `go test -bench` output.
// A result line looks like:
//
//	BenchmarkX/sub-8   	     100	  123456 ns/op	  12 B/op	  3 allocs/op	  456.7 queries/s
func parseBench(r io.Reader) (*Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		runs, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		res := Result{Name: fields[0], Runs: runs, Extra: map[string]float64{}}
		// The remainder alternates "value unit".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value %q in line %q", fields[i], line)
			}
			if fields[i+1] == "ns/op" {
				res.NsOp = v
			} else {
				res.Extra[fields[i+1]] = v
			}
		}
		if len(res.Extra) == 0 {
			if res.NsOp == 0 {
				return nil, fmt.Errorf("no metric in line %q", line)
			}
			res.Extra = nil
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks = mergeRepeats(rep.Benchmarks)
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return &rep, nil
}

// mergeRepeats collapses repeated results for the same benchmark name
// (a `go test -count=N` run) to the fastest one — the standard way to
// strip scheduler and writeback noise from an I/O-heavy benchmark
// before gating it. Extra metrics come from the same winning run so the
// report stays internally consistent.
func mergeRepeats(results []Result) []Result {
	best := make(map[string]int, len(results))
	out := results[:0]
	for _, r := range results {
		i, seen := best[r.Name]
		if !seen {
			best[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsOp < out[i].NsOp {
			out[i] = r
		}
	}
	return out
}

// compare prints a per-benchmark verdict and reports whether any shared
// benchmark regressed past the threshold or any baseline benchmark is gone
// from the fresh run: a deleted or renamed benchmark must leave the baseline
// in the same change, or it would drop out of the gate unnoticed. Benchmarks
// only in the fresh run are noted and pass (the suite grows over time).
// Extra metrics whose unit appears in gateExtras are gated like ns/op,
// but only when both sides report them.
func compare(w io.Writer, baseline, fresh *Report, maxRegress float64, gateExtras []string) bool {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	failed := false
	measured := make(map[string]bool, len(fresh.Benchmarks))
	for _, f := range fresh.Benchmarks {
		measured[f.Name] = true
		b, ok := base[f.Name]
		if !ok {
			fmt.Fprintf(w, "  new   %-50s %12.0f ns/op (no baseline)\n", f.Name, f.NsOp)
			continue
		}
		if f.NsOp != 0 && b.NsOp != 0 { // both sides timed
			delta := (f.NsOp - b.NsOp) / b.NsOp
			verdict := "ok"
			if delta > maxRegress {
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "  %-5s %-50s %12.0f ns/op vs %12.0f baseline (%+.1f%%)\n",
				verdict, f.Name, f.NsOp, b.NsOp, 100*delta)
		}
		for _, unit := range gateExtras {
			fv, fok := f.Extra[unit]
			bv, bok := b.Extra[unit]
			if !fok || !bok || bv == 0 {
				continue
			}
			delta := (fv - bv) / bv
			verdict := "ok"
			if delta > maxRegress {
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "  %-5s %-50s %12.0f %s vs %12.0f baseline (%+.1f%%)\n",
				verdict, f.Name, fv, unit, bv, 100*delta)
		}
	}
	for _, b := range baseline.Benchmarks {
		if !measured[b.Name] {
			failed = true
			fmt.Fprintf(w, "  gone  %-50s %12.0f ns/op baseline, not measured\n", b.Name, b.NsOp)
		}
	}
	if failed {
		fmt.Fprintf(w, "benchcheck: regression beyond %.0f%% or a baseline row gone — investigate, or re-baseline if intentional\n", 100*maxRegress)
	}
	return failed
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func writeReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
