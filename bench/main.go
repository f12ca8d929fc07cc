// Command bench (rdnsperf) is the repository's end-to-end performance
// harness: one process per workload drives the real scan → store → serve →
// replicate code on the small-scale universe, checks the outputs, and
// prints every metric by name and unit. README.md explains the workloads,
// the metrics and how to read them; BENCHMARK.json is the contract the
// driver runs it under.
//
//	bash bench/run.sh --workload sweep-wire --seed 1 --seconds 10 --trace 0
//	go run ./bench -all       # every workload, untraced then traced
//	go run ./bench -selfcheck # steadiness against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef is one named workload and the one-line reason it exists.
type workloadDef struct {
	Name string
	Why  string
	Run  func(*env, *result) error
}

var workloads = []workloadDef{
	{wIngest, "write path: netsim enumeration, engine merge, store append and compaction; no codec, socket or HTTP", runIngest},
	{wSweepWire, "per-address PTR sweep against in-process zones: dnswire, dnsserver, dnsclient and engine merge, no sockets", runSweepWire},
	{wSweepUDP, "the same sweep over a loopback UDP socket: socket cost dominates, so a codec change must not show here", runSweepUDP},
	{wLive, "Section 6 live run on fabric and simclock: DHCP, IPAM, DNS UPDATE, ICMP and reactive probing, event-driven", runLive},
	{wServeHot, "closed-loop /v1/at on a working set inside the store cache: HTTP, JSON and instrumentation own the time", runServeHot},
	{wServeCold, "closed-loop range/churn/name/at over 46k states and 12 segments: reconstruction, tiering, row encoding", runServeCold},
	{wFleet, "open-loop 400 req/s on primary and replica while days are appended, compacted, synced and reloaded", runFleet},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const runSeconds = 10 // BENCHMARK.json's run_seconds

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	all       bool
	selfcheck bool
	out       string
	result    string
	workdir   string
	outDir    string
	printJSON bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets a bare -trace mean -trace 1, while the driver's
// "--trace 0" and "--trace 1" keep their value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			continue
		}
		out = append(out, "1")
	}
	return out
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(allWorkloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed phase measures")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats the workload under the span recorder and reports the per-layer metrics")
	fs.BoolVar(&o.all, "all", false, "run every workload as a child process, untraced and then traced (-trace 0: untraced only)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets of ten seeds per workload and judge spread and drift against BENCHMARK.json")
	fs.StringVar(&o.out, "out", "", "with -all: write every metric, sample count and the environment to this JSON file (refuses to overwrite)")
	fs.StringVar(&o.result, "result", "", "write this run's full result as JSON to this file")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory for stores (default: a fresh directory under the system temp dir)")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for trace-<workload>.jsonl")
	fs.BoolVar(&o.printJSON, "benchmark-json", false, "print BENCHMARK.json from the metric catalogue and exit")
	traceSet := false
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })

	switch {
	case o.printJSON:
		fmt.Fprintln(stdout, benchmarkJSON())
		return 0
	case o.selfcheck:
		return selfcheck(o, stdout, stderr)
	case o.all:
		if !traceSet {
			o.trace = 1
		}
		return runAll(o, stdout, stderr)
	case o.workload == "":
		fmt.Fprintln(stderr, "bench: need -workload, -all or -selfcheck")
		fs.Usage()
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	return runOne(w, o, stdout, stderr)
}

// runOne executes one workload in this process and prints its report;
// the contract's JSON object is the last line of standard output.
func runOne(w workloadDef, o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := o.workdir
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(dir, "rdnsperf-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{
		seed:    o.seed,
		seconds: time.Duration(o.seconds * float64(time.Second)),
		trace:   o.trace != 0,
		nproc:   runtime.NumCPU(),
		dir:     scratch,
		outDir:  o.outDir,
		sz:      referenceSizes,
	}
	r := newResult(w.Name, o.seed, e.trace)
	if err := w.Run(e, r); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if miss := r.missing(); len(miss) > 0 {
		fmt.Fprintf(stderr, "bench: %s did not report: %s\n", w.Name, strings.Join(miss, ", "))
		return 1
	}
	printReport(stdout, w, e, r)
	if o.result != "" {
		if err := writeJSONFile(o.result, r); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !r.correct() {
		for _, p := range r.Problems {
			fmt.Fprintf(stderr, "bench: %s: correctness gate: %s\n", w.Name, p)
		}
		return 1
	}
	fmt.Fprintln(stdout, contractLine(r))
	return 0
}

// contractLine is the object the driver reads: with tracing off every
// end-to-end metric, with tracing on every per-layer metric (zero where
// the workload does not run the layer).
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range catalogue {
		if d.endToEnd() == r.Traced {
			continue
		}
		metrics[d.Name] = mv{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, r.Failed, metrics})
	return string(b)
}

// printReport is the human-readable account of one run.
func printReport(w io.Writer, wl workloadDef, e *env, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "untraced, then single-worker with the recorder off and on"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g nproc=%d (%s)\n", wl.Name, r.Seed, e.seconds.Seconds(), e.nproc, mode)
	fmt.Fprintf(w, "   why: %s\n", wl.Why)
	fmt.Fprintf(w, "   transport: HTTP over loopback TCP with keep-alive, DNS over loopback UDP sockets — a host loopback, not a link\n")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := catalogueIdx[names[i]].endToEnd(), catalogueIdx[names[j]].endToEnd()
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "   %-42s %16.4f %-7s n=%d\n", n, s.Value, s.Unit, s.N)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "   per-layer budget of the traced phase (wall %.1f ms):\n", float64(r.TracedNS)/1e6)
		fmt.Fprintf(w, "   %-28s %10s %12s %12s %7s\n", "op", "calls", "total ms", "self ms", "self %")
		var sum int64
		for _, t := range r.Budget {
			sum += t.Self
			fmt.Fprintf(w, "   %-28s %10d %12.2f %12.2f %6.1f%%\n", t.Op, t.Count, float64(t.Total)/1e6, float64(t.Self)/1e6, 100*ratio(float64(t.Self), float64(r.TracedNS)))
		}
		fmt.Fprintf(w, "   %-28s %10s %12s %12.2f %6.1f%%\n", "sum of self times", "", "", float64(sum)/1e6, 100*ratio(float64(sum), float64(r.TracedNS)))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.correct())
}

// benchmarkJSON renders the driver's contract file from the catalogue.
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range catalogue {
		if d.endToEnd() {
			doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
		}
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return string(b)
}

// writeJSONFile writes v to path, indented.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// childRun re-executes this binary for one workload and returns its full
// result. The child's report goes to stdout as it is produced.
func childRun(o options, workload string, seed uint64, trace int, stdout, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "rdnsperf-result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace),
		"-outdir", o.outDir,
		"-result", tmp.Name(),
	}
	if o.workdir != "" {
		args = append(args, "-workdir", o.workdir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp.Name())
	if err != nil || len(b) == 0 {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result written", workload)
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if runErr != nil {
		return &r, fmt.Errorf("%s: %w", workload, runErr)
	}
	return &r, nil
}

// runAll runs every workload as a child process: untraced for the
// end-to-end numbers, then (unless -trace 0) traced for the per-layer
// ones, the budget tables and the span files.
func runAll(o options, stdout, stderr io.Writer) int {
	if o.out != "" {
		if _, err := os.Stat(o.out); err == nil {
			fmt.Fprintf(stderr, "bench: %s exists; trajectory rows are not overwritten\n", o.out)
			return 2
		}
	}
	var results []*result
	failed := false
	for _, w := range workloads {
		for trace := 0; trace <= o.trace && trace <= 1; trace++ {
			r, err := childRun(o, w.Name, o.seed, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				failed = true
			}
			if r != nil {
				results = append(results, r)
			}
		}
	}
	if o.out != "" && !failed {
		row := struct {
			Claim      *string   `json:"claim"`
			Seed       uint64    `json:"seed"`
			RunSeconds float64   `json:"run_seconds"`
			Nproc      int       `json:"nproc"`
			GoVersion  string    `json:"go_version"`
			Commit     string    `json:"commit"`
			When       string    `json:"when"`
			Results    []*result `json:"results"`
		}{nil, o.seed, o.seconds, runtime.NumCPU(), runtime.Version(), gitCommit(), time.Now().UTC().Format(time.RFC3339), results}
		if err := writeJSONFile(o.out, row); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.out)
	}
	if failed {
		return 1
	}
	return 0
}

// gitCommit names the commit the numbers were measured on, when the
// harness runs inside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+uncommitted"
	}
	return commit
}
