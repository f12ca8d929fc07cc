package dnsclient

import (
	"rdnsprivacy/internal/telemetry"
)

// Metric names the resolver registers when telemetry is configured. The
// per-outcome counters carry the outcome mnemonic as an inline label, so
// the Prometheus exposition groups them as one family.
const (
	// MetricQueries counts lookups started.
	MetricQueries = "dnsclient_queries_total"
	// MetricRetransmits counts retransmissions (attempts after the first).
	MetricRetransmits = "dnsclient_retransmits_total"
	// MetricAttemptSeconds is the completed-lookup latency histogram
	// (first transmission to completion, i.e. Response.RTT).
	MetricAttemptSeconds = "dnsclient_attempt_seconds"
	// metricOutcomePrefix prefixes the per-outcome counters:
	// dnsclient_outcomes_total{outcome="NXDOMAIN"} etc.
	metricOutcomePrefix = `dnsclient_outcomes_total{outcome="`
)

// MetricOutcome returns the counter name for one outcome class.
func MetricOutcome(o Outcome) string {
	return metricOutcomePrefix + o.String() + `"}`
}

// clientMetrics holds the resolver's pre-resolved instrument handles;
// the pointer is nil when telemetry is off.
type clientMetrics struct {
	queries, retransmits *telemetry.Counter
	outcomes             [OutcomeCanceled + 1]*telemetry.Counter
	attemptSeconds       *telemetry.Histogram
}

func newClientMetrics(sink telemetry.Sink) *clientMetrics {
	m := &clientMetrics{
		queries:        sink.Counter(MetricQueries),
		retransmits:    sink.Counter(MetricRetransmits),
		attemptSeconds: sink.Histogram(MetricAttemptSeconds, telemetry.DefaultLatencyBuckets()),
	}
	for o := OutcomeSuccess; o <= OutcomeCanceled; o++ {
		m.outcomes[o] = sink.Counter(MetricOutcome(o))
	}
	return m
}

// countOutcome ticks the per-outcome counter and the latency histogram
// for one completed lookup. Safe on a nil receiver.
func (m *clientMetrics) countOutcome(resp Response) {
	if m == nil {
		return
	}
	if o := resp.Outcome; o >= 0 && int(o) < len(m.outcomes) {
		m.outcomes[o].Inc()
	}
	m.attemptSeconds.Observe(resp.RTT.Seconds())
}

// WithTelemetry registers the resolver's instruments in sink: query and
// retransmission counts, per-outcome fault-class counters matching the
// paper's taxonomy, and completed-lookup latency. Without
// it the resolver records nothing at zero cost.
func WithTelemetry(sink telemetry.Sink) Option {
	return func(c *config) { c.Telemetry = sink }
}

// WithTracer makes the resolver emit one "attempt" span per transmission,
// carrying the cross-layer correlation ID telemetry.CorrID(seed, name,
// attempt); the same ID rides each datagram, so a traced fabric and
// server extend the chain (see docs/observability.md). Pair with WithSeed
// for replayable IDs. Without it correlation costs nothing.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(c *config) { c.Tracer = tr }
}
