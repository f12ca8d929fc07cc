package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// harness around the call (telemetry.Span has no parent field, and the
// code under test stays untouched). Times are nanoseconds since the
// recorder started.
type span struct {
	parent     int32 // index of the enclosing span, -1 for the root
	op         uint16
	req        uint32 // request / probe / day number shared by one operation's spans
	start, end int64
}

// recorder keeps every span in memory until the run ends. A traced run
// drives one worker and one client, so although calls hop goroutines
// (client → server, engine → worker) at most one is in progress at a time
// and a single stack gives each span its parent. A nil recorder records
// nothing, which is how the untraced phases run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	ops   []string
	opIdx map[string]uint16
	spans []span
	stack []int32
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), opIdx: make(map[string]uint16)}
}

// op interns a "layer.Call" name; wrappers resolve theirs once.
func (r *recorder) op(name string) uint16 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.opIdx[name]; ok {
		return i
	}
	i := uint16(len(r.ops))
	r.ops = append(r.ops, name)
	r.opIdx[name] = i
	return i
}

// begin opens a span under whatever span is currently open.
func (r *recorder) begin(op uint16, req uint32) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{parent: parent, op: op, req: req, start: now})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return id
}

// end closes a span. A server-side span can outlive the client call that
// caused it by a few instructions, so end pops down to id rather than
// assuming it is on top.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].end = now
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == id {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// opTotals aggregates one op's spans.
type opTotals struct {
	Op    string
	Count int
	Total int64 // summed durations
	Self  int64 // summed durations minus the time children covered
}

func (t opTotals) layer() string {
	if i := strings.IndexByte(t.Op, '.'); i >= 0 {
		return t.Op[:i]
	}
	return t.Op
}

// selfTimes computes each op's total and self time. A span's self time
// is its duration minus the part of its interval its children cover;
// children are clipped to the parent's interval and overlapping siblings
// count once.
func (r *recorder) selfTimes() []opTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans, r.ops)
}

func selfTimes(spans []span, ops []string) []opTotals {
	covered := make([]int64, len(spans)) // child-covered ns per span
	lastEnd := make([]int64, len(spans)) // end of the children merged so far
	for i := range lastEnd {
		lastEnd[i] = spans[i].start
	}
	// Spans are appended in start order, so each parent sees its children
	// sorted by start and one pass merges overlaps.
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := s.start, s.end
		if lo < lastEnd[s.parent] {
			lo = lastEnd[s.parent]
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			covered[s.parent] += hi - lo
			lastEnd[s.parent] = hi
		}
	}
	totals := make([]opTotals, len(ops))
	for i := range totals {
		totals[i].Op = ops[i]
	}
	for i, s := range spans {
		t := &totals[s.op]
		t.Count++
		t.Total += s.end - s.start
		t.Self += s.end - s.start - covered[i]
	}
	ran := totals[:0]
	for _, t := range totals {
		if t.Count > 0 {
			ran = append(ran, t)
		}
	}
	sort.Slice(ran, func(i, j int) bool { return ran[i].Self > ran[j].Self })
	return ran
}

// findOp returns the op's aggregate (zero when the op never ran).
func findOp(totals []opTotals, op string) opTotals {
	for _, t := range totals {
		if t.Op == op {
			return t
		}
	}
	return opTotals{Op: op}
}

// writeJSONL dumps the spans, one object per line: id, parent, op, req,
// start_ns, end_ns.
func (r *recorder) writeJSONL(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for i, s := range r.spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"op":"`...)
		buf = append(buf, r.ops[s.op]...)
		buf = append(buf, `","req":`...)
		buf = strconv.AppendUint(buf, uint64(s.req), 10)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
