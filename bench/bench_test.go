package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scanengine"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5}, {n: 99},
		{n: 100, want: 90, ok: true}, // exactly 10 beyond p90
		{n: 199, want: 90, ok: true}, // p95 would leave 9.95
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	got := summarize(xs)
	if got.P50 != 500 || got.Tail != 990 || got.TailPct != 99 || got.N != 1000 {
		t.Fatalf("summarize = %+v", got)
	}
	few := summarize([]float64{3, 1, 2})
	if few.P50 != 2 || few.Tail != 2 || few.TailPct != 0 {
		t.Fatalf("summarize of 3 samples = %+v; want the median standing in for the tail", few)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11, 13, 9], n=4) == [9.5, 11.0, 12.5]
	if got, want := quartileSpread([]float64{10, 12, 11, 13, 9}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}

// TestJudge: two sets of one build must agree in both directions, and a
// spread beyond the bound fails every metric but setup_s.
func TestJudge(t *testing.T) {
	d := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{80, 120, 85, 115, 90, 110, 100, 100, 75, 125}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", d, steady, scaled(1.05), "ok"},
		{"second set slower", d, steady, scaled(0.85), "DRIFT"},
		{"second set faster", d, steady, scaled(1.15), "DRIFT"}, // better, yet the build did not repeat
		{"wide set", d, steady, wide, "SPREAD"},
		{"setup_s is excused its spread", metricDef{Name: "setup_s", Bound: 0.10}, steady, wide, "ok"},
		{"setup_s is not excused drift", metricDef{Name: "setup_s", Bound: 0.10}, steady, scaled(1.2), "DRIFT"},
	} {
		if got := judge(tc.d, tc.a, tc.b); got.verdict != tc.want {
			t.Errorf("%s: verdict %s (drift %+.3f, spreads %.3f %.3f), want %s", tc.name, got.verdict, got.drift, got.s1, got.s2, tc.want)
		}
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	ops := []string{"bench.root", "a.Call", "b.Call", "c.Leaf"}
	spans := []span{
		{parent: -1, op: 0, start: 0, end: 100},
		{parent: 0, op: 1, start: 10, end: 40},
		{parent: 1, op: 3, start: 15, end: 25},
		{parent: 0, op: 2, start: 30, end: 60},  // overlaps its sibling by 10
		{parent: 0, op: 2, start: 90, end: 120}, // outlives the parent: clipped to 90..100
		{parent: 0, op: 1, start: 95, end: 98},  // inside the clipped sibling: counted once
	}
	got := make(map[string]opTotals)
	for _, tot := range selfTimes(spans, ops) {
		got[tot.Op] = tot
	}
	// Root: 100 minus the union 10..60 and 90..100.
	if s := got["bench.root"].Self; s != 40 {
		t.Errorf("root self = %d, want 40", s)
	}
	if a := got["a.Call"]; a.Count != 2 || a.Total != 33 || a.Self != 23 {
		t.Errorf("a.Call = %+v, want 2 calls, total 33, self 23", a)
	}
	if b := got["b.Call"]; b.Total != 60 || b.Self != 60 {
		t.Errorf("b.Call = %+v, want total and self 60", b)
	}
	if c := got["c.Leaf"]; c.Self != 10 {
		t.Errorf("c.Leaf self = %d, want 10", c.Self)
	}
	if l := got["a.Call"].layer(); l != "a" {
		t.Errorf("layer = %q", l)
	}
}

func TestRecorderNestsAcrossGoroutines(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(rec.op("bench.workload"), 0)
	client := rec.begin(rec.op("rdnsclient.at"), 1)
	done := make(chan struct{})
	go func() { // the server side of the call runs on another goroutine
		id := rec.begin(rec.op("rdnsserve.ServeHTTP.at"), 1)
		rec.end(id)
		close(done)
	}()
	<-done
	rec.end(client)
	next := rec.begin(rec.op("rdnsclient.at"), 2)
	rec.end(next)
	rec.end(root)
	if p := rec.spans[2].parent; p != client {
		t.Errorf("handler span's parent = %d, want the client span %d", p, client)
	}
	if p := rec.spans[next].parent; p != root {
		t.Errorf("second client span's parent = %d, want the root %d", p, root)
	}
	var sum int64
	for _, tot := range rec.selfTimes() {
		sum += tot.Self
	}
	if wall := rec.spans[root].end - rec.spans[root].start; sum != wall {
		t.Errorf("self times sum to %d, traced wall is %d", sum, wall)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d span lines, want 4", len(lines))
	}
	var first struct {
		ID, Parent int
		Op         string
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Op != "bench.workload" || first.Parent != -1 {
		t.Fatalf("first span line %q: %+v, %v", lines[0], first, err)
	}
	var nilRec *recorder // the untraced phases run the same code with no recorder
	nilRec.end(nilRec.begin(nilRec.op("x.y"), 0))
}

func TestDigestRecords(t *testing.T) {
	a := scanengine.RecordSet{
		dnswire.MustIPv4("10.0.0.1"): "brians-iphone.dyn.example.edu.",
		dnswire.MustIPv4("10.0.0.2"): "emma-mbp.dyn.example.edu.",
		dnswire.MustIPv4("10.0.1.9"): "host-9.example.net.",
	}
	b := make(scanengine.RecordSet)
	for _, ip := range []string{"10.0.1.9", "10.0.0.2", "10.0.0.1"} { // another insertion order
		b[dnswire.MustIPv4(ip)] = a[dnswire.MustIPv4(ip)]
	}
	if digestRecords(a) != digestRecords(b) {
		t.Fatal("digest depends on map order")
	}
	b[dnswire.MustIPv4("10.0.0.2")] = "emma-ipad.dyn.example.edu."
	if digestRecords(a) == digestRecords(b) {
		t.Fatal("digest blind to a changed name")
	}
	delete(b, dnswire.MustIPv4("10.0.0.2"))
	if digestRecords(a) == digestRecords(b) {
		t.Fatal("digest blind to a missing record")
	}
}

// TestOpenLoopCountsFromDueTime: a connection that takes 3 ms per request
// on a 1 ms schedule falls behind, and because each request is timed from
// when it was due — not from when it was finally sent — the backlog shows
// in the latencies while the generator itself stays on time.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const total = 20
	slow := func(_, _ int) { time.Sleep(3 * time.Millisecond) }
	for _, conns := range []int{1, 0} {
		got := openLoop(time.Now(), time.Millisecond, total, conns, nil, slow)
		if len(got.latUS) != total || len(got.lateUS) != total {
			t.Fatalf("conns=%d: %d latencies, %d lateness samples, want %d each", conns, len(got.latUS), len(got.lateUS), total)
		}
		// Request 19 is due at 19 ms and cannot finish before 20×3 ms.
		if last := got.latUS[total-1]; last < 40e3 {
			t.Errorf("conns=%d: last request took %.0f us from its due time, want at least 40000 (the backlog)", conns, last)
		}
		if first := got.latUS[0]; first < 3e3 || first > got.latUS[total-1] {
			t.Errorf("conns=%d: first request took %.0f us", conns, first)
		}
		if conns > 0 {
			// The pacer hands requests over on schedule even though the
			// connection is behind (by 40 ms at the end); the allowance is
			// for a machine busy with the other packages' tests.
			if late := median(got.lateUS); late > 10e3 {
				t.Errorf("pacer ran %.0f us late at the median", late)
			}
		} else if late := got.lateUS[total-1]; late < 30e3 {
			// On one goroutine the generator itself is held up, and says so.
			t.Errorf("inline generator reports %.0f us lateness on the last request, want the backlog", late)
		}
	}
	hooks := 0
	openLoop(time.Now(), time.Microsecond, 5, 0, func(time.Time) { hooks++ }, func(_, _ int) {})
	if hooks != 5 {
		t.Errorf("before ran %d times, want once per request", hooks)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"-all -trace":                    "-all -trace 1",
		"--workload x --trace 0":         "--workload x --trace 0",
		"--trace 1 --seed 3":             "--trace 1 --seed 3",
		"-trace -out f":                  "-trace 1 -out f",
		"-workload sweep-udp -seconds 2": "-workload sweep-udp -seconds 2",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the checked-in contract file
// and the harness's metric catalogue from drifting apart, and holds the
// file to the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != benchmarkJSON() {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -benchmark-json`; regenerate it")
	}
	var e2e, layers int
	hasSetup := false
	for _, d := range catalogue {
		if len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's limits", d)
		}
		if d.endToEnd() {
			e2e++
			if d.Bound > 0.25 {
				t.Errorf("%s: bound %v above 0.25", d.Name, d.Bound)
			}
			if len(d.On) != len(allWorkloads) {
				t.Errorf("%s: an end-to-end metric must be measured on every workload", d.Name)
			}
			hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		} else {
			layers++
		}
	}
	if e2e < 1 || e2e > 16 || layers < 1 || layers > 128 || !hasSetup {
		t.Errorf("%d end-to-end and %d per-layer metrics, setup_s present: %v", e2e, layers, hasSetup)
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// tinySizes is a universe small enough that every workload sets up and
// runs in about a second: 15 dynamic networks instead of 76.
var tinySizes = sizes{
	Universe: netsim.UniverseConfig{
		FillerSlash24s:        100,
		LeakyNetworks:         12,
		NonLeakyDynamic:       3,
		PeoplePerDynamicBlock: 6,
	},
	IngestBatchDays: 4,
	CompactEvery:    2,
	SweepChunks:     12,
	ServeDays:       12,
	HotIPs:          8,
	HotDays:         3,
	FleetPreload:    7,
	FleetAppendGap:  100 * time.Millisecond,
	FleetRate:       200,
	LiveCheckHours:  6,
}

// TestWorkloadsEmitEveryMetricOnce runs each workload, traced, on the tiny
// universe and checks the contract: the correctness gate passes, every
// metric the catalogue assigns to the workload is reported (result.set
// already refuses a second value, an unknown name or one the workload does
// not own), each with its unit, and the driver's last line carries exactly
// the catalogue's names.
func TestWorkloadsEmitEveryMetricOnce(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			e := &env{seed: 7, seconds: 300 * time.Millisecond, trace: true, nproc: 2, dir: dir, outDir: filepath.Join(dir, "out"), sz: tinySizes}
			r := newResult(w.Name, e.seed, e.trace)
			if err := w.Run(e, r); err != nil {
				t.Fatal(err)
			}
			for _, p := range r.Problems {
				t.Errorf("correctness gate: %s", p)
			}
			if miss := r.missing(); len(miss) > 0 {
				t.Errorf("not reported: %v", miss)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			for name, s := range r.Metrics {
				d := catalogueIdx[name]
				if s.Unit == "" || s.Unit != d.Unit {
					t.Errorf("%s: unit %q, catalogue says %q", name, s.Unit, d.Unit)
				}
				if d.endToEnd() && !(s.Value > 0) {
					t.Errorf("%s = %v; an end-to-end metric is never zero", name, s.Value)
				}
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s = %v", name, s.Value)
				}
			}
			if pct := r.Metrics["bench.budget_sum_pct"].Value; pct < 95 || pct > 105 {
				t.Errorf("per-layer self times sum to %.1f%% of the traced wall", pct)
			}
			if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".jsonl")); err != nil {
				t.Errorf("span file: %v", err)
			}
			for _, traced := range []bool{false, true} {
				r.Traced = traced
				var line struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, d := range catalogue {
					if d.endToEnd() != traced {
						want++
						if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
							t.Errorf("traced=%v: last line lacks %s in %s", traced, d.Name, d.Unit)
						}
					}
				}
				if len(line.Metrics) != want || !line.Correct || line.Attempted < 1 {
					t.Errorf("traced=%v: last line has %d metrics (want %d), correct=%v attempted=%d", traced, len(line.Metrics), want, line.Correct, line.Attempted)
				}
			}
		})
	}
}

// TestUnknownWorkloadAndUsage: the command line fails loudly.
func TestUnknownWorkloadAndUsage(t *testing.T) {
	var out, errb strings.Builder
	if code := realMain([]string{"-workload", "nope"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, errb.String())
	}
	errb.Reset()
	if code := realMain(nil, &out, &errb); code != 2 {
		t.Errorf("no arguments: exit %d", code)
	}
	out.Reset()
	if code := realMain([]string{"-benchmark-json"}, &out, &errb); code != 0 || !strings.Contains(out.String(), `"run_seconds": 10`) {
		t.Errorf("-benchmark-json: exit %d, %q", code, out.String())
	}
}
