package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
)

// Hex16 renders a 64-bit digest the way the telemetry JSONL does.
func Hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

// Store is a ring-bounded frame series: one Frame per campaign day,
// oldest evicted past capacity. Safe for concurrent use —
// a live sweep can capture frames while an exporter or test reads them.
type Store struct {
	mu     sync.Mutex
	cap    int
	frames []Frame
}

// NewStore creates a store holding at most capacity frames (<= 0 means
// 4096 — over a decade of daily snapshots).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Store{cap: capacity}
}

// Add appends a frame, evicting the oldest past capacity.
func (s *Store) Add(f Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, f)
	if over := len(s.frames) - s.cap; over > 0 {
		s.frames = append(s.frames[:0], s.frames[over:]...)
	}
}

// Frames returns a copy of the retained frames, oldest first.
func (s *Store) Frames() []Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Frame(nil), s.frames...)
}

// Len returns the number of retained frames.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// WriteJSONL dumps the retained frames as one JSON object per line — the
// -obs-out format; ReadFrames inverts it.
func (s *Store) WriteJSONL(w io.Writer) error {
	return WriteFrames(w, s.Frames())
}

// WriteFrames writes any frame slice as JSONL.
func WriteFrames(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFrames parses a JSONL frame dump produced by WriteJSONL.
func ReadFrames(r io.Reader) ([]Frame, error) {
	var out []Frame
	dec := json.NewDecoder(r)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("obs: frame %d: %w", len(out)+1, err)
		}
		out = append(out, f)
	}
}

// FramesDigest hashes a frame series via its canonical JSONL encoding
// (json sorts map keys, so equal frames always encode identically). Two
// replays of the same seeded campaign must produce equal digests.
func FramesDigest(frames []Frame) (uint64, error) {
	f := fnv.New64a()
	if err := WriteFrames(f, frames); err != nil {
		return 0, err
	}
	return f.Sum64(), nil
}
