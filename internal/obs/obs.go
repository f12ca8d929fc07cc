package obs

import (
	"sync"
	"time"

	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// DefaultExcludedMetrics are the counters scheduling can perturb; frames
// leave them out of digests and deltas so replays of the same seeded
// campaign stay bit-identical. The list matches what the faultsim
// determinism tests exclude.
func DefaultExcludedMetrics() []string {
	return []string{
		scanengine.MetricMergeStalls,
		scanengine.MetricHedges,
		scanengine.MetricHedgeWins,
	}
}

// Recorder captures one Frame per campaign day from a registry and a
// sweep snapshot. Methods are safe for concurrent use and safe on a nil
// receiver, so a campaign can carry an optional *Recorder and call it
// unconditionally.
type Recorder struct {
	reg     *telemetry.Registry
	store   *Store
	exclude []string
	skip    map[string]bool

	// mu guards prev and storeStats, so interleaved captures attribute
	// deltas without tearing.
	mu sync.Mutex
	// prev is the last captured counter snapshot, for delta computation.
	prev map[string]uint64
	// storeStats, when set, snapshots the campaign's history store for
	// each frame (see SetStoreStats).
	storeStats func() StoreStats
}

// NewRecorder creates a recorder over reg (which may be nil: frames then
// carry snapshot fields only, no digests or deltas). Its ring holds 4096
// frames and its digests and deltas leave out DefaultExcludedMetrics.
func NewRecorder(reg *telemetry.Registry) *Recorder {
	r := &Recorder{
		reg:     reg,
		store:   NewStore(0),
		exclude: DefaultExcludedMetrics(),
		prev:    make(map[string]uint64),
	}
	r.skip = make(map[string]bool, len(r.exclude))
	for _, n := range r.exclude {
		r.skip[n] = true
	}
	return r
}

// SetStoreStats attaches a history-store snapshot source: every frame
// captured afterwards carries Frame.Store with fn's result at capture
// time. The campaign side (internal/scan) sets this after each append,
// converting histstore.Stats to the local StoreStats — obs deliberately
// does not import the storage layer. Safe on a nil recorder; fn nil
// detaches.
func (r *Recorder) SetStoreStats(fn func() StoreStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.storeStats = fn
	r.mu.Unlock()
}

// CaptureFrame records one campaign day: the snapshot summary plus the
// registry digest and counter deltas since the previous capture. It
// returns the captured frame. Safe on a nil recorder (returns the zero
// Frame). The store serializes captures, so concurrent callers are safe,
// but delta attribution assumes one capture per completed sweep.
func (r *Recorder) CaptureFrame(index int, date time.Time, snap *scanengine.Snapshot) Frame {
	return r.Capture(frameFromSnapshot(index, date, snap))
}

// Capture records a pre-built frame: the attached store source fills
// Frame.Store (where still unset), then the registry
// digest and counter deltas are stamped and the frame enters the ring.
// It is the capture path for producers that assemble frame fields
// themselves — internal/vantage's post-run day frames — and the body of
// CaptureFrame. Safe on a nil recorder (returns the zero Frame).
func (r *Recorder) Capture(f Frame) Frame {
	if r == nil {
		return Frame{}
	}
	r.mu.Lock()
	if r.storeStats != nil && f.Store == nil {
		ss := r.storeStats()
		f.Store = &ss
	}
	r.mu.Unlock()
	if r.reg != nil {
		f.MetricsDigest = Hex16(r.reg.DeterministicDigest(r.exclude...))
		cur := r.reg.Snapshot().Counters
		r.mu.Lock()
		deltas := make(map[string]uint64)
		for name, v := range cur {
			if r.skip[name] {
				continue
			}
			if d := v - r.prev[name]; d != 0 {
				deltas[name] = d
			}
		}
		r.prev = cur
		r.mu.Unlock()
		if len(deltas) > 0 {
			f.Deltas = deltas
		}
	}
	r.store.Add(f)
	return f
}

// Frames returns the captured frames, oldest first. Safe on nil.
func (r *Recorder) Frames() []Frame {
	if r == nil {
		return nil
	}
	return r.store.Frames()
}

// Store exposes the underlying ring (for JSONL dumps). Safe on nil.
func (r *Recorder) Store() *Store {
	if r == nil {
		return nil
	}
	return r.store
}
