package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records sweep spans into a bounded ring: one span per unit of
// work (the engine opens one per shard), each carrying a sequence of
// compact events (the engine closes a shard span with one per outcome
// class). Span identifiers derive from the
// tracer's seed and the span's name and keys — never from time or
// allocation order — so two runs of the same seeded scenario produce the
// same span IDs and the same Digest, which is what makes traces
// replay-comparable under faultsim.
//
// Completed spans land in the ring; once more than the capacity have
// finished, the oldest are dropped (and counted). All methods are safe
// for concurrent use and safe on a nil receiver, so instrumented code
// calls unconditionally.
type Tracer struct {
	seed uint64
	cap  int
	now  func() time.Time

	mu      sync.Mutex
	spans   []*Span // circular buffer; head indexes the oldest entry once full
	head    int     // next write position after the buffer reaches capacity
	dropped uint64  // completed spans evicted from the ring
}

// TracerOption tunes a Tracer.
type TracerOption func(*Tracer)

// WithNow sets the clock used for span and event timestamps (default
// time.Now). The engine passes its simclock so simulated sweeps stamp
// simulated times. Timestamps never participate in span IDs or digests.
func WithNow(now func() time.Time) TracerOption {
	return func(t *Tracer) {
		if now != nil {
			t.now = now
		}
	}
}

// NewTracer creates a tracer whose span IDs derive from seed. capacity
// bounds the completed-span ring (<= 0 means 4096).
func NewTracer(seed int64, capacity int, opts ...TracerOption) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	t := &Tracer{seed: uint64(seed), cap: capacity, now: time.Now}
	for _, o := range opts {
		o(t)
	}
	return t
}

// maxEventsPerSpan bounds a span's event log, so an instrumented loop
// that logs per item cannot pin memory without limit. The cap cuts by
// sequence number, so it is deterministic.
const maxEventsPerSpan = 8192

// Span is one traced unit of work. Events must be appended from a single
// goroutine (the engine's shard loop is sequential); End publishes the
// span to the tracer's ring and must be called exactly once.
type Span struct {
	ID      uint64
	Name    string
	Attr    string // human-facing label, e.g. the shard prefix
	StartAt time.Time
	EndAt   time.Time
	Events  []SpanEvent
	// Dropped counts events discarded past the per-span cap.
	Dropped int
	// Corr is the cross-layer correlation ID (see CorrID), zero when the
	// span is not part of a causal chain. Spans from different layers
	// carrying the same Corr describe the same probe.
	Corr uint64

	tracer *Tracer
}

// SpanEvent is one compact event inside a span. Seq is the event's index
// in append order; Kind and Code carry the instrumented package's
// taxonomy (the engine closes a shard span with one event per outcome
// class, the class's probe count as its code). At is informational and
// excluded from digests.
type SpanEvent struct {
	Seq  int       `json:"i"`
	Kind string    `json:"kind"`
	Code uint64    `json:"code"`
	At   time.Time `json:"t"`
}

// StartSpan opens a span. The ID mixes the tracer seed, the name, and the
// keys with splitmix64, so the same (seed, name, keys) always yields the
// same ID. Safe on a nil tracer (returns nil; nil spans no-op).
func (t *Tracer) StartSpan(name, attr string, keys ...uint64) *Span {
	return t.StartSpanCorr(name, attr, 0, keys...)
}

// StartSpanCorr opens a span that belongs to the causal chain identified
// by corr (see CorrID). The correlation ID participates in the span ID
// derivation, so spans for the same probe from different layers get
// distinct-but-deterministic IDs while sharing Corr. Safe on a nil tracer.
func (t *Tracer) StartSpanCorr(name, attr string, corr uint64, keys ...uint64) *Span {
	if t == nil {
		return nil
	}
	f := fnv.New64a()
	io.WriteString(f, name)
	words := []uint64{t.seed, f.Sum64()}
	if corr != 0 {
		words = append(words, corr)
	}
	words = append(words, keys...)
	return &Span{
		ID:      Mix64(words...),
		Name:    name,
		Attr:    attr,
		Corr:    corr,
		StartAt: t.now(),
		tracer:  t,
	}
}

// Event appends one event. Safe on a nil span.
func (s *Span) Event(kind string, code uint64) {
	if s == nil {
		return
	}
	if len(s.Events) >= maxEventsPerSpan {
		s.Dropped++
		return
	}
	s.Events = append(s.Events, SpanEvent{
		Seq:  len(s.Events),
		Kind: kind,
		Code: code,
		At:   s.tracer.now(),
	})
}

// End closes the span and publishes it to the tracer ring. A caller
// recording work it has already timed sets StartAt and EndAt first; End
// stamps EndAt only when it is still unset. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	if s.EndAt.IsZero() {
		s.EndAt = t.now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// O(1) eviction: once the buffer reaches capacity, overwrite in place
	// instead of shifting — sustained overflow (per-probe correlation
	// spans) would otherwise turn every End into a full-ring copy.
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.head] = s
	t.head = (t.head + 1) % t.cap
	t.dropped++
}

// Len returns the number of completed spans currently in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// DroppedSpans returns how many completed spans the ring has evicted.
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot copies the completed-span ring in completion order, oldest
// first. The spans themselves are not copied; callers must treat them as
// read-only (they are immutable after End).
func (t *Tracer) Snapshot() []*Span {
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// snapshot copies the ring under the lock, linearized oldest-first.
func (t *Tracer) snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.spans))
	out = append(out, t.spans[t.head:]...)
	return append(out, t.spans[:t.head]...)
}

// Digest hashes the deterministic portion of every completed span — ID,
// name, attr, dropped-event count and the (Seq, Kind, Code) of each event
// — with spans sorted by ID so worker scheduling cannot perturb the
// result. Timestamps are excluded. Two runs of the same seeded scenario
// must produce equal digests; see the faultsim telemetry scenario test.
func (t *Tracer) Digest() uint64 {
	if t == nil {
		return 0
	}
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].ID != spans[j].ID {
			return spans[i].ID < spans[j].ID
		}
		return spans[i].Name < spans[j].Name
	})
	f := fnv.New64a()
	for _, s := range spans {
		fmt.Fprintf(f, "%016x %016x %s %s %d\n", s.ID, s.Corr, s.Name, s.Attr, s.Dropped)
		for _, ev := range s.Events {
			fmt.Fprintf(f, "  %d %s %d\n", ev.Seq, ev.Kind, ev.Code)
		}
	}
	return f.Sum64()
}

// SpanRecord is the JSONL form of a completed span, one object per line.
type SpanRecord struct {
	ID      string      `json:"id"`
	Name    string      `json:"name"`
	Attr    string      `json:"attr,omitempty"`
	Corr    string      `json:"corr,omitempty"` // cross-layer correlation ID, hex
	Start   time.Time   `json:"start"`
	End     time.Time   `json:"end"`
	Dropped int         `json:"dropped,omitempty"`
	Events  []SpanEvent `json:"events"`
}

// CorrID parses the record's correlation ID (zero when absent).
func (r SpanRecord) CorrID() uint64 {
	if r.Corr == "" {
		return 0
	}
	var v uint64
	fmt.Sscanf(r.Corr, "%x", &v)
	return v
}

// WriteJSONL dumps the completed spans in completion order, one JSON
// object per line — the -trace-out format cmd/experiments consumes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		rec := SpanRecord{
			ID:      fmt.Sprintf("%016x", s.ID),
			Name:    s.Name,
			Attr:    s.Attr,
			Start:   s.StartAt,
			End:     s.EndAt,
			Dropped: s.Dropped,
			Events:  s.Events,
		}
		if s.Corr != 0 {
			rec.Corr = fmt.Sprintf("%016x", s.Corr)
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a JSONL span dump produced by WriteJSONL.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(r)
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("telemetry: span record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

// Mix64 mixes words with the splitmix64 finalizer. It is the one mixer
// behind every seeded, schedule-independent decision in the tree: span and
// correlation IDs here, faultsim's fault draws (and through them
// dnsserver's), scanengine's backoff jitter, obs's anomaly thresholds.
func Mix64(words ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h ^= w
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// UnitFloat maps a hash to [0,1), for comparing against a rate.
func UnitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
