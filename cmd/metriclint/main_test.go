package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses synthetic sources as one package unit, mirroring how
// collect sees a real directory.
func parseSrc(t *testing.T, srcs ...string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, "src"+string(rune('a'+i))+".go", src, 0)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	return fset, files
}

func lintSrc(t *testing.T, srcs ...string) ([]finding, int) {
	t.Helper()
	fset, files := parseSrc(t, srcs...)
	regs, dyn := collect(fset, files)
	return lint(regs), dyn
}

func msgs(fs []finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.msg)
		b.WriteString("\n")
	}
	return b.String()
}

func TestCleanRegistrations(t *testing.T) {
	fs, dyn := lintSrc(t, `package p
const metricQueries = "rdnsd_queries_total"
func f(sink Sink) {
	sink.Counter(metricQueries).Add(1)
	sink.Gauge("rdnsd_store_generation").Set(1)
	sink.Histogram("rdnsd_query_seconds").Observe(0.1)
	sink.Histogram("dnsserver_zonewalk_depth").Observe(3)
}
`)
	if len(fs) != 0 {
		t.Fatalf("unexpected findings:\n%s", msgs(fs))
	}
	if dyn != 0 {
		t.Fatalf("dyn = %d, want 0", dyn)
	}
}

func TestSuffixRules(t *testing.T) {
	fs, _ := lintSrc(t, `package p
func f(sink Sink) {
	sink.Counter("rdnsd_queries").Add(1)
	sink.Gauge("rdnsd_reloads_total").Set(1)
	sink.Histogram("rdnsd_query_latency").Observe(0.1)
}
`)
	if len(fs) != 3 {
		t.Fatalf("findings = %d, want 3:\n%s", len(fs), msgs(fs))
	}
	all := msgs(fs)
	for _, want := range []string{"must end in _total", "drop _total", "unit suffix"} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in:\n%s", want, all)
		}
	}
}

func TestPrefixAndShape(t *testing.T) {
	fs, _ := lintSrc(t, `package p
func f(sink Sink) {
	sink.Counter("widget_frobs_total").Add(1)
	sink.Counter("Rdnsd_Bad_total").Add(1)
}
`)
	if len(fs) != 2 {
		t.Fatalf("findings = %d, want 2:\n%s", len(fs), msgs(fs))
	}
	all := msgs(fs)
	if !strings.Contains(all, "unknown subsystem prefix") {
		t.Errorf("missing prefix finding in:\n%s", all)
	}
	if !strings.Contains(all, "not lowercase_underscore") {
		t.Errorf("missing shape finding in:\n%s", all)
	}
}

func TestLabeledConcatenationResolves(t *testing.T) {
	// The real pattern from rdnsserve.outcomesFor: base const + a label
	// block whose value half is a variable. The base name must still be
	// linted, not skipped as dynamic.
	fs, dyn := lintSrc(t, `package p
const metricRequests = "rdnsd_requests_total"
func f(sink Sink, endpoint, outcome string) {
	sink.Counter(metricRequests + `+"`"+`{endpoint="`+"`"+` + endpoint + `+"`"+`",outcome="`+"`"+` + outcome + `+"`"+`"}`+"`"+`).Add(1)
}
`)
	if dyn != 0 {
		t.Fatalf("dyn = %d, want 0 (labeled concat should resolve)", dyn)
	}
	if len(fs) != 0 {
		t.Fatalf("unexpected findings:\n%s", msgs(fs))
	}
}

func TestDynamicNamesSkipped(t *testing.T) {
	fs, dyn := lintSrc(t, `package p
func f(sink Sink, o outcome) {
	sink.Counter(MetricOutcome(o)).Add(1)
	sink.Counter("rdnsd_" + dynamicPart() + "_total").Add(1)
}
`)
	// The second call's unresolved part starts before any label block, so
	// no full base name exists — both are dynamic skips.
	if dyn != 2 {
		t.Fatalf("dyn = %d, want 2:\n%s", dyn, msgs(fs))
	}
	if len(fs) != 0 {
		t.Fatalf("unexpected findings:\n%s", msgs(fs))
	}
}

func TestCrossFileConstAndForwardReference(t *testing.T) {
	fs, dyn := lintSrc(t,
		`package p
func f(sink Sink) { sink.Counter(metricFetches).Add(1) }
`,
		`package p
const metricFetches = metricPrefix + "fetches_total"
const metricPrefix = "rdnsd_repl_"
`)
	if dyn != 0 {
		t.Fatalf("dyn = %d, want 0 (cross-file forward const should resolve)", dyn)
	}
	if len(fs) != 0 {
		t.Fatalf("unexpected findings:\n%s", msgs(fs))
	}
}

func TestKindConflict(t *testing.T) {
	fs, _ := lintSrc(t, `package p
func f(sink Sink) {
	sink.Counter("rdnsd_reloads_total").Add(1)
	sink.Counter("rdnsd_reloads_total").Add(1) // same kind twice: fine
	sink.Gauge("rdnsd_reloads_total").Set(1)   // kind conflict
}
`)
	var conflict bool
	for _, f := range fs {
		if strings.Contains(f.msg, "already registered as Counter") {
			conflict = true
		}
	}
	if !conflict {
		t.Fatalf("missing kind-conflict finding:\n%s", msgs(fs))
	}
}

// TestViewRegistrations: a view is held to the rules of the kind it
// registers, and shares the kind table with plain registrations.
func TestViewRegistrations(t *testing.T) {
	fs, dyn := lintSrc(t, `package p
const metricGeneration = "rdnsd_store_generation"
func f(sink Sink, s *Server) {
	sink.CounterView("rdnsd_queries_total", s.queries)
	sink.GaugeView(metricGeneration, s.gen.Load)
	sink.HistogramView("rdnsd_query_seconds", s.latency)
	sink.CounterView("widget_reloads_total", s.reloads)
	sink.CounterView("rdnsd_reloads", s.reloads)
	sink.GaugeView("rdnsd_inflight_total", s.inFlight)
	sink.HistogramView("rdnsd_query_latency", s.latency)
	sink.Counter("rdnsd_store_generation_total").Add(1)
	sink.CounterView("rdnsd_store_generation", s.gen)
}
`)
	if dyn != 0 {
		t.Fatalf("dyn = %d, want 0", dyn)
	}
	all := msgs(fs)
	if len(fs) != 6 {
		t.Fatalf("findings = %d, want 6:\n%s", len(fs), all)
	}
	for _, want := range []string{
		`unknown subsystem prefix "widget"`,
		`Counter "rdnsd_reloads": counters must end in _total`,
		`Gauge "rdnsd_inflight_total": gauges are levels`,
		`Histogram "rdnsd_query_latency": histograms must carry a unit suffix`,
		`Counter "rdnsd_store_generation": counters must end in _total`,
		`Counter "rdnsd_store_generation": already registered as Gauge`,
	} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in:\n%s", want, all)
		}
	}
}

func TestRepoIsClean(t *testing.T) {
	// The linter's own acceptance test: the real tree must pass.
	dirs, err := goDirs([]string{"../../internal", "../../cmd"})
	if err != nil {
		t.Fatalf("goDirs: %v", err)
	}
	fset := token.NewFileSet()
	var regs []registration
	for _, dir := range dirs {
		files, err := parseDir(fset, dir)
		if err != nil {
			t.Fatalf("parseDir %s: %v", dir, err)
		}
		r, _ := collect(fset, files)
		regs = append(regs, r...)
	}
	if len(regs) < 50 {
		t.Fatalf("resolved only %d registrations — resolver regressed?", len(regs))
	}
	if fs := lint(regs); len(fs) != 0 {
		t.Fatalf("repo has metric-name violations:\n%s", msgs(fs))
	}
}
