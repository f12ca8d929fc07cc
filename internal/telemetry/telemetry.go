// Package telemetry is the scan pipeline's observability layer: a
// dependency-free, allocation-conscious metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms with quantile estimation, and
// read-time views of counts their owners already keep) plus a
// lightweight sweep tracer whose span identifiers derive deterministically
// from the scan seed, so traces taken from two runs of the same seeded
// scenario are directly comparable.
//
// The paper's longitudinal analyses (dynamic-/24 detection, leak
// lifetimes, removal timing) depend on knowing exactly what each sweep
// did: how many queries, retries, hedges, breaker trips, and cache hits
// produced a snapshot. Instrumented packages accept a telemetry.Sink and
// hold pre-resolved instrument handles; a nil Sink yields nil handles,
// and every instrument method is nil-receiver safe, so the uninstrumented
// hot path costs a single pointer test per site.
//
// Typical wiring:
//
//	reg := telemetry.NewRegistry()
//	tr := telemetry.NewTracer(seed, 4096)
//	sc := scanengine.New(src, scanengine.WithTelemetry(reg), scanengine.WithTracer(tr))
//	exp := telemetry.NewExporter(reg, telemetry.WithExporterTracer(tr))
//	addr, _ := exp.Start("127.0.0.1:9090") // /metrics, /debug/vars, /debug/pprof/, /health, /trace
//	defer exp.Close()
//
// See docs/observability.md for the metric names each package exports and for
// the JSONL trace schema.
package telemetry

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Sink hands out named instruments. *Registry implements it; instrumented
// packages take a Sink so tests can substitute their own. A nil Sink (or a
// nil *Registry) disables instrumentation at zero cost: the helper
// constructors below return nil handles whose methods are no-ops.
type Sink interface {
	// Counter returns the named monotonic counter, creating it on first
	// use.
	Counter(name string) *Counter
	// Gauge returns the named gauge, creating it on first use.
	Gauge(name string) *Gauge
	// Histogram returns the named histogram, creating it on first use
	// with the given bucket upper bounds (ignored if it already exists).
	Histogram(name string, buckets []float64) *Histogram
	// CounterView, GaugeView and HistogramView register a view: an
	// instrument whose value fn computes at snapshot time from a count its
	// owner already keeps, so the fact is counted once. A later view
	// registration under the same name replaces the earlier one.
	CounterView(name string, fn func() uint64)
	GaugeView(name string, fn func() int64)
	HistogramView(name string, fn func() HistogramSnapshot)
}

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so instrumented code
// never branches on whether telemetry is enabled.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. Nil-receiver safe.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a process-local metric namespace. The zero value is not
// usable; create one with NewRegistry. A nil *Registry is a valid no-op
// Sink: its getters return nil instruments.
type Registry struct {
	mu    sync.Mutex
	insts map[string]any // *Counter, *Gauge, *Histogram or a view
}

// The views: read-time instruments whose func runs at Snapshot.
type (
	counterView   func() uint64
	gaugeView     func() int64
	histogramView func() HistogramSnapshot
)

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]any)}
}

// Counter implements Sink. Safe on a nil receiver (returns nil).
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, false, func() *Counter { return &Counter{} })
}

// Gauge implements Sink. Safe on a nil receiver (returns nil).
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, name, false, func() *Gauge { return &Gauge{} })
}

// Histogram implements Sink. Safe on a nil receiver (returns nil). The
// bucket bounds apply only on first registration.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return register(r, name, false, func() *Histogram { return newHistogram(buckets) })
}

// CounterView implements Sink. Safe on a nil receiver (a no-op).
func (r *Registry) CounterView(name string, fn func() uint64) {
	register(r, name, true, func() counterView { return fn })
}

// GaugeView implements Sink. Safe on a nil receiver (a no-op).
func (r *Registry) GaugeView(name string, fn func() int64) {
	register(r, name, true, func() gaugeView { return fn })
}

// HistogramView implements Sink. Safe on a nil receiver (a no-op).
func (r *Registry) HistogramView(name string, fn func() HistogramSnapshot) {
	register(r, name, true, func() histogramView { return fn })
}

// register returns the instrument of kind T named name, creating it with
// mk when the name is free; a view (replace) is made anew and takes the
// name over. A name registered as another kind panics — a programming
// error worth failing loudly on.
func register[T any](r *Registry, name string, replace bool, mk func() T) T {
	var t T
	if r == nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		if t, ok = in.(T); !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T, requested as %T", name, in, t))
		}
		if !replace {
			return t
		}
	}
	t = mk()
	r.insts[name] = t
	return t
}

// Snapshot is a point-in-time copy of every instrument. Each instrument is
// read atomically; histogram counts are derived from the bucket counters
// at read time, so Count always equals the sum of Buckets even while
// writers race the snapshot. A view appears as the kind it registered.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures the registry. Safe on nil (returns empty maps). It
// reads the instruments outside the registry lock: a view's func may take
// its owner's locks, and its owner may register instruments under them.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	insts := maps.Clone(r.insts)
	r.mu.Unlock()
	for name, in := range insts {
		switch in := in.(type) {
		case *Counter:
			s.Counters[name] = in.Value()
		case counterView:
			s.Counters[name] = in()
		case *Gauge:
			s.Gauges[name] = in.Value()
		case gaugeView:
			s.Gauges[name] = in()
		case *Histogram:
			s.Histograms[name] = in.Snapshot()
		case histogramView:
			s.Histograms[name] = in()
		}
	}
	return s
}

// DeterministicDigest hashes the deterministic portion of the registry:
// counter and gauge values plus histogram observation counts, in sorted
// name order. Bucket contents, sums and quantiles are excluded — they
// depend on wall-clock latencies even when the measured workload is
// seed-deterministic. Names listed in exclude are skipped entirely
// (e.g. scheduling-dependent counters like merge backpressure stalls).
func (r *Registry) DeterministicDigest(exclude ...string) uint64 {
	skip := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		skip[n] = true
	}
	snap := r.Snapshot()
	f := fnv.New64a()
	line := func(kind, name string, v uint64) {
		fmt.Fprintf(f, "%s %s %d\n", kind, name, v)
	}
	for _, name := range sortedKeys(snap.Counters) {
		if !skip[name] {
			line("c", name, snap.Counters[name])
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		if !skip[name] {
			line("g", name, uint64(snap.Gauges[name]))
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		if !skip[name] {
			line("h", name, snap.Histograms[name].Count)
		}
	}
	return f.Sum64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Metric names may carry an inline label set
// ("scan_changes_total{kind=\"added\"}"): the family (the name before
// '{') gets one TYPE comment, and its series are written together, sorted
// by family and then labels. A labelled histogram's suffixes go on the
// family, before its labels: base_bucket{labels,le="…"}, base_sum{labels},
// base_count{labels}.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	names = append(names, sortedKeys(snap.Counters)...)
	names = append(names, sortedKeys(snap.Gauges)...)
	names = append(names, sortedKeys(snap.Histograms)...)
	slices.SortFunc(names, func(a, b string) int {
		fa, la := splitLabels(a)
		fb, lb := splitLabels(b)
		return cmp.Or(strings.Compare(fa, fb), strings.Compare(la, lb))
	})
	var lastFamily string
	typeLine := func(family, kind string) {
		if family != lastFamily {
			fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
			lastFamily = family
		}
	}
	for _, name := range names {
		family, labels := splitLabels(name)
		if v, ok := snap.Counters[name]; ok {
			typeLine(family, "counter")
			if _, err := fmt.Fprintf(w, "%s %d\n", name, v); err != nil {
				return err
			}
			continue
		}
		if v, ok := snap.Gauges[name]; ok {
			typeLine(family, "gauge")
			if _, err := fmt.Fprintf(w, "%s %d\n", name, v); err != nil {
				return err
			}
			continue
		}
		h := snap.Histograms[name]
		typeLine(family, "histogram")
		// Buckets carry OpenMetrics-style exemplars when recorded: the
		// worst correlated observation each bucket has seen, so a scrape
		// can name the exact query behind a tail bucket.
		exemplar := func(i int) string {
			if ex, ok := h.BucketExemplar(i); ok {
				return fmt.Sprintf(" # {corr=\"%016x\"} %g", ex.Corr, ex.Value)
			}
			return ""
		}
		// series is the label block of _sum and _count; bucket opens
		// _bucket's, which adds le.
		series, bucket := "", "{"
		if labels != "" {
			series, bucket = "{"+labels+"}", "{"+labels+","
		}
		cum := uint64(0)
		for i, ub := range h.Buckets {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d%s\n", family, bucket, ub, cum, exemplar(i))
		}
		cum += h.Overflow
		fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d%s\n", family, bucket, cum, exemplar(len(h.Buckets)))
		fmt.Fprintf(w, "%s_sum%s %g\n", family, series, h.Sum)
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", family, series, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitLabels splits an instrument name into its family and the inline
// label set inside its braces ("" when it has none).
func splitLabels(name string) (family, labels string) {
	family, labels, ok := strings.Cut(name, "{")
	if !ok {
		return name, ""
	}
	return family, strings.TrimSuffix(labels, "}")
}

// WriteJSON renders the registry as a single expvar-style JSON object:
// counters and gauges as numbers, histograms as objects carrying count,
// sum and the estimated p50/p95/p99. Keys are sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	names = append(names, sortedKeys(snap.Counters)...)
	names = append(names, sortedKeys(snap.Gauges)...)
	names = append(names, sortedKeys(snap.Histograms)...)
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "\n  %q: ", name)
		switch {
		case hasKey(snap.Counters, name):
			fmt.Fprintf(w, "%d", snap.Counters[name])
		case hasKey(snap.Gauges, name):
			fmt.Fprintf(w, "%d", snap.Gauges[name])
		default:
			h := snap.Histograms[name]
			fmt.Fprintf(w, `{"count": %d, "sum": %g, "p50": %g, "p95": %g, "p99": %g}`,
				h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

func hasKey[V any](m map[string]V, k string) bool {
	_, ok := m[k]
	return ok
}
