package vantage

import "rdnsprivacy/internal/telemetry"

// Metric names the orchestrator registers when Campaign.Telemetry is set
// (see docs/campaigns.md and docs/observability.md).
const (
	// MetricSweeps counts completed per-vantage daily sweeps.
	MetricSweeps = "vantage_sweeps_total"
	// MetricAppends counts successful per-vantage store appends.
	MetricAppends = "vantage_appends_total"
	// MetricFaults counts attempt-level injected fault verdicts across
	// every vantage's lens (a record retried twice then lost counts 3).
	MetricFaults = "vantage_faults_total"
	// MetricLostRecords counts records a vantage's lens dropped after
	// exhausting its retries — the records that go missing from that
	// vantage's view.
	MetricLostRecords = "vantage_lost_records_total"
	// MetricLagged counts records a vantage answered from its stale view.
	MetricLagged = "vantage_lagged_records_total"
	// MetricDisagreements counts analyzer classifications that deviate
	// from the cross-vantage reference beyond the lag window's excuse
	// (missed + only-at + conflicts; lag-excused deviations count under
	// MetricLagged-adjacent report fields instead).
	MetricDisagreements = "vantage_disagreements_total"
	// MetricChanges counts reference-view PTR transitions the analyzer
	// saw; MetricCorroborated how many every vantage confirmed.
	MetricChanges      = "vantage_changes_total"
	MetricCorroborated = "vantage_corroborated_changes_total"
)

// metrics holds the pre-resolved instrument handles; a nil sink leaves
// them nil and every increment no-ops through telemetry's nil-receiver
// contract (the histstore idiom).
type metrics struct {
	sweeps        *telemetry.Counter
	appends       *telemetry.Counter
	faults        *telemetry.Counter
	lostRecords   *telemetry.Counter
	lagged        *telemetry.Counter
	disagreements *telemetry.Counter
	changes       *telemetry.Counter
	corroborated  *telemetry.Counter
}

func newMetrics(sink telemetry.Sink) *metrics {
	if sink == nil {
		return &metrics{}
	}
	return &metrics{
		sweeps:        sink.Counter(MetricSweeps),
		appends:       sink.Counter(MetricAppends),
		faults:        sink.Counter(MetricFaults),
		lostRecords:   sink.Counter(MetricLostRecords),
		lagged:        sink.Counter(MetricLagged),
		disagreements: sink.Counter(MetricDisagreements),
		changes:       sink.Counter(MetricChanges),
		corroborated:  sink.Counter(MetricCorroborated),
	}
}

// observeReport folds the analyzer's totals into the campaign counters.
func (m *metrics) observeReport(r *Report) {
	if r == nil {
		return
	}
	t := r.Totals
	m.disagreements.Add(uint64(t.Missed + t.OnlyAt + t.Conflicts))
	m.changes.Add(uint64(t.Changes))
	m.corroborated.Add(uint64(t.FullyCorroborated))
}
