package dnsserver

import (
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
)

// Metric names the server registers when SetTelemetry is configured.
const (
	// MetricQueries counts queries received (including ones dropped or
	// unparseable).
	MetricQueries = "dnsserver_queries_total"
	// MetricDropped counts queries silently dropped (malformed packets
	// and injected drops).
	MetricDropped = "dnsserver_dropped_total"
	// MetricZoneWalkDepth is the histogram of suffix probes findZone
	// performed per lookup — how deep the zone-cut walk had to go.
	MetricZoneWalkDepth = "dnsserver_zonewalk_depth"
	// metricAnswerPrefix prefixes the per-RCODE answer counters:
	// dnsserver_answers_total{rcode="NXDOMAIN"} etc.
	metricAnswerPrefix = `dnsserver_answers_total{rcode="`
)

// MetricAnswer returns the counter name for answers with one RCODE
// mnemonic ("NOERROR", "NXDOMAIN", "SERVFAIL", "REFUSED", "FORMERR",
// "NOTIMP").
func MetricAnswer(rcode string) string {
	return metricAnswerPrefix + rcode + `"}`
}

// serverMetrics holds the server's pre-resolved instrument handles.
type serverMetrics struct {
	queries, dropped *telemetry.Counter
	answers          [dnswire.RCodeRefused + 1]*telemetry.Counter // by RCODE
	zoneWalkDepth    *telemetry.Histogram
}

// SetTelemetry registers the server's instruments in sink: query volume,
// per-RCODE answer counts, drops, and zone-walk depth. Pass nil to
// detach. Like SetFailureMode it is safe to call while the server is
// answering queries; the new sink applies to queries that begin after the
// call.
// SetTracer makes the server emit one "server" span per correlated query
// handled via HandleQueryCorr (see that method for the event taxonomy).
// Pass nil to detach. Safe to call while the server is answering queries.
func (s *Server) SetTracer(tr *telemetry.Tracer) {
	s.tracer.Store(tr)
}

func (s *Server) SetTelemetry(sink telemetry.Sink) {
	if sink == nil {
		s.met.Store(nil)
		return
	}
	met := &serverMetrics{
		queries:       sink.Counter(MetricQueries),
		dropped:       sink.Counter(MetricDropped),
		zoneWalkDepth: sink.Histogram(MetricZoneWalkDepth, telemetry.DepthBuckets(8)),
	}
	for rcode := range met.answers {
		met.answers[rcode] = sink.Counter(MetricAnswer(dnswire.RCode(rcode).String()))
	}
	s.met.Store(met)
}
