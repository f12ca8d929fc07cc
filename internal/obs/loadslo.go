package obs

import (
	"flag"
	"fmt"
	"strings"
)

// Query-serving SLOs. The campaign rules in slo.go judge the *producer*
// side of the pipeline (a sweep's error rate, coverage, breaker budget);
// LoadRules judge the *consumer* side: rdnsd answering tens of thousands
// of concurrent queries off the same store. cmd/rdnsload aggregates a
// load-generation run into one LoadSample per endpoint (plus a "total"
// sample) and evaluates them here, so "is the daemon within SLO" is the
// same declarative-rules-and-verdicts machinery as "was the campaign
// within SLO".

// LoadSample summarizes one endpoint's serving behaviour over a load run:
// request and failure counts plus client-observed latency quantiles.
type LoadSample struct {
	// Label names the sample ("at", "range", ..., or "total").
	Label string `json:"label"`
	// Requests counts completed requests, including failed ones.
	Requests uint64 `json:"requests"`
	// Errors counts hard failures: transport errors and 5xx responses
	// other than load-shedding 503s.
	Errors uint64 `json:"errors"`
	// RateLimited counts 429 responses (after the client's retries were
	// exhausted); Shed counts load-shedding 503s.
	RateLimited uint64 `json:"rate_limited"`
	Shed        uint64 `json:"shed"`
	// P50/P95/P99 are client-observed latency quantiles in seconds.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// P99Corr is the correlation ID (hex) of the worst observation in the
	// histogram bucket holding the p99 — the exemplar that answers "which
	// query was the p99". Empty when the run did not trace.
	P99Corr string `json:"p99_corr,omitempty"`
	// BytesBehind is the replication lag a replica target reported after
	// the run (see LoadRules.MaxReplicaLagBytes). Zero for primaries and
	// for per-endpoint samples.
	BytesBehind int64 `json:"bytes_behind,omitempty"`
}

// ErrorRate is hard failures per request (0 with no requests).
func (s LoadSample) ErrorRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Errors) / float64(s.Requests)
}

// ShedRate is admission rejections (429s and shedding 503s) per request.
func (s LoadSample) ShedRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.RateLimited+s.Shed) / float64(s.Requests)
}

// LoadRules is a declarative serving SLO, evaluated per sample. Rate
// bounds follow the slo.go convention: negative disables, zero means
// "none allowed". Latency bounds are seconds; zero disables.
type LoadRules struct {
	// MaxErrorRate bounds LoadSample.ErrorRate.
	MaxErrorRate float64 `json:"max_error_rate"`
	// MaxShedRate bounds LoadSample.ShedRate — how much admission-control
	// pushback the run tolerates before the service counts as degraded.
	MaxShedRate float64 `json:"max_shed_rate"`
	// MaxP95Seconds / MaxP99Seconds cap the latency quantiles.
	MaxP95Seconds float64 `json:"max_p95_seconds"`
	MaxP99Seconds float64 `json:"max_p99_seconds"`
	// MaxReplicaLagBytes bounds LoadSample.BytesBehind — how stale a read
	// replica may be and still count as serving. Positive bounds the lag,
	// negative requires full catch-up (0 bytes behind), zero disables the
	// rule (the default: primaries have no lag to judge).
	MaxReplicaLagBytes int64 `json:"max_replica_lag_bytes,omitempty"`
}

// LoadVerdict is one sample's SLO evaluation.
type LoadVerdict struct {
	Label      string      `json:"label"`
	OK         bool        `json:"ok"`
	Violations []Violation `json:"violations,omitempty"`
}

// LoadReport is the run-level evaluation: one verdict per sample.
type LoadReport struct {
	Verdicts []LoadVerdict `json:"verdicts"`
	// ViolatingSamples counts samples with at least one violation; OK
	// reports none.
	ViolatingSamples int  `json:"violating_samples"`
	OK               bool `json:"ok"`
}

// EvaluateLoad applies the rules to each sample.
func (r LoadRules) EvaluateLoad(samples []LoadSample) LoadReport {
	rep := LoadReport{Verdicts: make([]LoadVerdict, 0, len(samples))}
	for _, s := range samples {
		v := r.evaluateSample(s)
		if !v.OK {
			rep.ViolatingSamples++
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	rep.OK = rep.ViolatingSamples == 0
	return rep
}

func (r LoadRules) evaluateSample(s LoadSample) LoadVerdict {
	v := LoadVerdict{Label: s.Label, OK: true}
	fail := func(rule string, value, limit float64) {
		v.OK = false
		v.Violations = append(v.Violations, Violation{Rule: rule, Value: value, Limit: limit})
	}
	if r.MaxErrorRate >= 0 && s.ErrorRate() > r.MaxErrorRate {
		fail("error_rate", s.ErrorRate(), r.MaxErrorRate)
	}
	if r.MaxShedRate >= 0 && s.ShedRate() > r.MaxShedRate {
		fail("shed_rate", s.ShedRate(), r.MaxShedRate)
	}
	if r.MaxP95Seconds > 0 && s.P95 > r.MaxP95Seconds {
		fail("p95", s.P95, r.MaxP95Seconds)
	}
	if r.MaxP99Seconds > 0 && s.P99 > r.MaxP99Seconds {
		fail("p99", s.P99, r.MaxP99Seconds)
	}
	if r.MaxReplicaLagBytes != 0 {
		limit := r.MaxReplicaLagBytes
		if limit < 0 {
			limit = 0 // negative: caught up or violating
		}
		if s.BytesBehind > limit {
			fail("replica_lag_bytes", float64(s.BytesBehind), float64(limit))
		}
	}
	return v
}

// Summary renders the report one line per sample — the cmd/rdnsload
// output shape.
func (rep LoadReport) Summary() string {
	var b strings.Builder
	for _, v := range rep.Verdicts {
		if v.OK {
			fmt.Fprintf(&b, "%-8s ok\n", v.Label)
			continue
		}
		parts := make([]string, len(v.Violations))
		for i, viol := range v.Violations {
			parts[i] = viol.String()
		}
		fmt.Fprintf(&b, "%-8s VIOLATING: %s\n", v.Label, strings.Join(parts, "; "))
	}
	verdict := "within SLO"
	if !rep.OK {
		verdict = "OUT OF SLO"
	}
	fmt.Fprintf(&b, "%d/%d samples violating (%s)\n", rep.ViolatingSamples, len(rep.Verdicts), verdict)
	return b.String()
}

// RegisterFlags binds the rules to the -slo-* flags that rdnsload and
// rdnsmon share, at their shared defaults.
func (r *LoadRules) RegisterFlags(fs *flag.FlagSet) {
	fs.Float64Var(&r.MaxErrorRate, "slo-max-error-rate", 0, "SLO: max hard-error rate (0 = none allowed)")
	fs.Float64Var(&r.MaxShedRate, "slo-max-shed-rate", 0.01, "SLO: max 429+503 pushback rate")
	fs.Float64Var(&r.MaxP95Seconds, "slo-p95", 1.0, "SLO: max p95 latency in seconds (negative disables)")
	fs.Float64Var(&r.MaxP99Seconds, "slo-p99", 2.5, "SLO: max p99 latency in seconds (negative disables)")
	fs.Int64Var(&r.MaxReplicaLagBytes, "slo-max-lag-bytes", 0, "SLO: max replica lag in feed bytes (negative = must be caught up, 0 disables)")
}

// SplitList parses a comma-separated flag value (a fleet's base URLs, a
// list of span sources) into its trimmed, non-empty items, each without a
// trailing slash.
func SplitList(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, strings.TrimRight(s, "/"))
		}
	}
	return out
}
