package obs

import (
	"strings"
	"testing"
)

func TestLoadRulesEvaluate(t *testing.T) {
	rules := LoadRules{
		MaxErrorRate:  0.01,
		MaxShedRate:   0.05,
		MaxP95Seconds: 0.5,
		MaxP99Seconds: 2.0,
	}
	samples := []LoadSample{
		{Label: "at", Requests: 1000, Errors: 0, P50: 0.001, P95: 0.01, P99: 0.05},
		{Label: "range", Requests: 1000, Errors: 50, P95: 0.1, P99: 0.2},        // error_rate 5%
		{Label: "churn", Requests: 200, RateLimited: 20, Shed: 5, P99: 0.1},     // shed_rate 12.5%
		{Label: "name", Requests: 100, P95: 0.9, P99: 3.0},                      // p95 + p99
		{Label: "total", Requests: 2300, Errors: 50, RateLimited: 20, P99: 1.9}, // error_rate only
	}
	rep := rules.EvaluateLoad(samples)
	if rep.OK || rep.ViolatingSamples != 4 {
		t.Fatalf("report: OK=%v violating=%d, want 4 violating", rep.OK, rep.ViolatingSamples)
	}
	if !rep.Verdicts[0].OK {
		t.Fatalf("clean sample violated: %+v", rep.Verdicts[0])
	}
	wantRules := map[string][]string{
		"range": {"error_rate"},
		"churn": {"shed_rate"},
		"name":  {"p95", "p99"},
		"total": {"error_rate"},
	}
	for _, v := range rep.Verdicts[1:] {
		want := wantRules[v.Label]
		if len(v.Violations) != len(want) {
			t.Fatalf("%s: violations %+v, want rules %v", v.Label, v.Violations, want)
		}
		for i, viol := range v.Violations {
			if viol.Rule != want[i] {
				t.Errorf("%s: violation %d is %q, want %q", v.Label, i, viol.Rule, want[i])
			}
		}
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "OUT OF SLO") || !strings.Contains(sum, "4/5 samples violating") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestLoadRulesDisabledAndZero(t *testing.T) {
	// Zero latency bounds disable; negative rates disable; a zero rate
	// means "none allowed" (the slo.go convention).
	s := LoadSample{Label: "x", Requests: 10, Errors: 1, Shed: 10, P95: 99, P99: 99}
	off := LoadRules{MaxErrorRate: -1, MaxShedRate: -1}
	if rep := off.EvaluateLoad([]LoadSample{s}); !rep.OK {
		t.Fatalf("disabled rules still violated: %+v", rep.Verdicts)
	}
	strict := LoadRules{MaxErrorRate: 0, MaxShedRate: -1}
	rep := strict.EvaluateLoad([]LoadSample{s})
	if rep.OK || rep.Verdicts[0].Violations[0].Rule != "error_rate" {
		t.Fatalf("zero MaxErrorRate did not gate: %+v", rep.Verdicts)
	}
	// No requests: rates are zero, nothing to violate.
	empty := LoadRules{MaxShedRate: 0.01, MaxP95Seconds: 1, MaxP99Seconds: 2.5}
	if rep := empty.EvaluateLoad([]LoadSample{{Label: "idle"}}); !rep.OK {
		t.Fatalf("idle sample violated: %+v", rep.Verdicts)
	}
}
