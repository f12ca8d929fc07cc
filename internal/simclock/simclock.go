// Package simclock provides virtual time for simulations.
//
// Every subsystem in this repository that needs to know the time or to
// schedule future work does so through a Clock. Two implementations are
// provided: Real, which delegates to the time package, and Simulated, which
// advances only when told to. The Simulated clock lets the longitudinal
// experiments of the paper (two years of daily reverse-DNS snapshots) run in
// seconds while preserving exact timing semantics such as DHCP lease expiry
// and measurement back-off schedules.
package simclock

import (
	"sync"
	"time"
)

// Clock abstracts the passage of time.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run when d has elapsed on this clock and
	// returns a Timer that can cancel the call.
	AfterFunc(d time.Duration, f func()) Timer
	// AfterDeliver schedules sink.Deliver(arg) to run when d has elapsed on
	// this clock. It is AfterFunc for a call that is never cancelled and
	// carries its argument by value, so a caller that schedules one call
	// per packet needs no closure for it. It orders with AfterFunc calls
	// exactly as an AfterFunc made at the same moment would.
	AfterDeliver(d time.Duration, sink Sink, arg uint64)
}

// Sink receives the calls AfterDeliver schedules.
type Sink interface {
	Deliver(arg uint64)
}

// Timer is a handle to a scheduled function call.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was prevented
	// from running. Stopping an already-fired or stopped timer returns
	// false.
	Stop() bool
}

// Real is a Clock backed by the time package. The zero value is ready to use.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// AfterDeliver implements Clock.
func (Real) AfterDeliver(d time.Duration, sink Sink, arg uint64) {
	time.AfterFunc(d, func() { sink.Deliver(arg) })
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

// Simulated is a Clock whose time only moves when Advance or Run is called.
// Scheduled functions run synchronously, in timestamp order, on the
// goroutine that advances the clock. Create one with NewSimulated.
//
// Pending calls live in one 4-ary min-heap of value entries ordered by
// (key, seq): key is the deadline's offset from the instant the clock was
// created at, seq the order AfterFunc was called in. Deadlines only ever
// come from Now().Add(d), so comparing offsets is comparing instants, and
// the pop order is the (deadline, scheduling order) total order. The clock
// therefore spans the 292 years either side of its start instant that a
// time.Duration holds; deadlines beyond that compare equal.
//
// AfterDeliver calls share the heap and the sequence with AfterFunc calls.
// No Timer of theirs escapes, so the clock recycles their events: once the
// recycled events cover the most calls ever pending, a delivery allocates
// nothing. Whenever no delivery is pending, the events are reused in the
// order they were made, so a burst of deliveries scheduled together walks
// them in memory order rather than in the order the last burst fired.
type Simulated struct {
	mu      sync.Mutex
	start   time.Time
	now     time.Time
	nowKey  time.Duration // now's offset from start
	queue   []entry
	nextSeq uint64
	running bool
	// Delivery events by slot, in chunks that never move. The free ones
	// are those in spare and every slot from fresh up; flying counts the
	// rest.
	deliveries []*[deliveryChunk]delivery
	spare      []int32
	fresh      int32
	flying     int
}

// delivery is a delivery event and, while it is pending, what it calls:
// one block of memory, so firing it reads one place.
type delivery struct {
	ev   event
	sink Sink
	arg  uint64
}

// deliveryChunk is how many deliveries are allocated together.
const deliveryChunk = 256

func (s *Simulated) delivery(slot int32) *delivery {
	return &s.deliveries[slot/deliveryChunk][slot%deliveryChunk]
}

// entry is one pending call in the heap. Everything a comparison needs is
// in the entry itself; ev is followed only to keep its index current. seq
// is the scheduling order shifted up one bit, the low bit set for an
// AfterDeliver call: with no Timer to stop it, its event keeps no index,
// and moving it in the heap does not touch the event at all.
type entry struct {
	key time.Duration
	seq uint64
	ev  *event
}

const deliveryBit = 1

// placed records that e now sits at index i of the heap.
func (e entry) placed(i int) {
	if e.seq&deliveryBit == 0 {
		e.ev.index = int32(i)
	}
}

func (a entry) before(b entry) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// NewSimulated returns a Simulated clock whose current time is start.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{start: start, now: start}
}

// Now implements Clock.
func (s *Simulated) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements Clock. A non-positive duration schedules the call at
// the current instant; it still will not run until the clock is advanced.
func (s *Simulated) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &event{when: s.now.Add(d), fn: f, sim: s}
	s.push(entry{key: ev.when.Sub(s.start), seq: s.nextSeq << 1, ev: ev})
	s.nextSeq++
	return ev
}

// AfterDeliver implements Clock. A non-positive duration schedules the call
// at the current instant, as for AfterFunc.
func (s *Simulated) AfterDeliver(d time.Duration, sink Sink, arg uint64) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	var slot int32
	if n := len(s.spare); n > 0 {
		slot = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		slot = s.fresh
		s.fresh++
		if int(slot) == len(s.deliveries)*deliveryChunk {
			chunk := new([deliveryChunk]delivery)
			for i := range chunk {
				chunk[i].ev.slot = slot + int32(i)
			}
			s.deliveries = append(s.deliveries, chunk)
		}
	}
	s.flying++
	dv := s.delivery(slot)
	dv.sink, dv.arg = sink, arg
	ev := &dv.ev
	ev.when = s.now.Add(d)
	s.push(entry{key: ev.when.Sub(s.start), seq: s.nextSeq<<1 | deliveryBit, ev: ev})
	s.nextSeq++
	s.mu.Unlock()
}

// Advance moves the clock forward by d, running every scheduled function
// whose deadline falls within the window, in order.
func (s *Simulated) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	s.mu.Unlock()
	s.AdvanceTo(target)
}

// AdvanceTo moves the clock forward to target, running every scheduled
// function whose deadline is at or before target, in order. Functions
// scheduled during the advance are run too if they fall inside the window.
// Moving backwards is a no-op.
func (s *Simulated) AdvanceTo(target time.Time) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("simclock: re-entrant Advance")
	}
	s.running = true
	targetKey := target.Sub(s.start)
	for len(s.queue) > 0 && s.queue[0].key <= targetKey {
		e := s.popMin()
		if e.key > s.nowKey {
			s.now, s.nowKey = e.ev.when, e.key
		}
		if e.seq&deliveryBit == 0 {
			fn := e.ev.fn
			s.mu.Unlock()
			fn()
		} else {
			dv := s.delivery(e.ev.slot)
			sink, arg := dv.sink, dv.arg
			dv.sink = nil
			if s.flying--; s.flying == 0 {
				s.spare, s.fresh = s.spare[:0], 0
			} else {
				s.spare = append(s.spare, e.ev.slot)
			}
			s.mu.Unlock()
			sink.Deliver(arg)
		}
		s.mu.Lock()
	}
	if targetKey > s.nowKey {
		s.now, s.nowKey = target, targetKey
	}
	s.running = false
	s.mu.Unlock()
}

// RunUntilIdle runs scheduled functions until the queue is empty and reports
// the time of the last event run. Use with care: self-rescheduling events
// make this endless, so it is intended for bounded simulations.
func (s *Simulated) RunUntilIdle() time.Time {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			now := s.now
			s.mu.Unlock()
			return now
		}
		next := s.queue[0].ev.when
		s.mu.Unlock()
		s.AdvanceTo(next)
	}
}

// Pending reports the number of scheduled, unfired, unstopped events.
func (s *Simulated) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// event is a scheduled call on a Simulated clock: an AfterFunc call, and
// the Timer AfterFunc hands out, or an AfterDeliver call, whose sink and
// argument sit beside it in s.delivery(slot). index is an AfterFunc event's
// position in the heap, -1 once it has fired or been stopped. Both indexes
// are 32 bits so the event stays in a 48-byte allocation.
type event struct {
	when  time.Time
	fn    func()
	sim   *Simulated
	index int32
	slot  int32
}

// Stop implements Timer. It takes the call out of the queue at once.
func (e *event) Stop() bool {
	s := e.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.index < 0 {
		return false
	}
	s.remove(int(e.index))
	return true
}

// heapArity is the heap's fan-out. Four children sit in 96 contiguous
// bytes, so picking the least costs about what one binary level does, and
// the tree is half as deep.
const heapArity = 4

// push adds e to the heap. The caller holds s.mu, as for every heap
// operation below.
func (s *Simulated) push(e entry) {
	s.queue = append(s.queue, e)
	s.up(len(s.queue)-1, e)
}

// popMin removes and returns the least entry of a non-empty heap.
func (s *Simulated) popMin() entry {
	top := s.queue[0]
	s.remove(0)
	return top
}

// remove takes the entry at index i out of the heap.
func (s *Simulated) remove(i int) {
	q := s.queue
	q[i].placed(-1)
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	s.queue = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(q[(i-1)/heapArity]) {
		s.up(i, last)
	} else {
		s.down(i, last)
	}
}

// up places e at or above the hole at index i.
func (s *Simulated) up(i int, e entry) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].placed(i)
		i = parent
	}
	q[i] = e
	e.placed(i)
}

// down places e at or below the hole at index i.
func (s *Simulated) down(i int, e entry) {
	q := s.queue
	for {
		first := heapArity*i + 1
		if first >= len(q) {
			break
		}
		least := first
		for c := first + 1; c < first+heapArity && c < len(q); c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(e) {
			break
		}
		q[i] = q[least]
		q[i].placed(i)
		i = least
	}
	q[i] = e
	e.placed(i)
}

// Ticker repeatedly invokes a function at a fixed interval on a Clock until
// stopped. It is a convenience built on AfterFunc, used by sweep-style
// measurement loops.
type Ticker struct {
	mu      sync.Mutex
	clock   Clock
	d       time.Duration
	fn      func(time.Time)
	timer   Timer
	stopped bool
}

// NewTicker schedules fn to run every d on clock, starting one interval from
// now. fn receives the tick time.
func NewTicker(clock Clock, d time.Duration, fn func(time.Time)) *Ticker {
	t := &Ticker{clock: clock, d: d, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.clock.AfterFunc(t.d, func() {
		t.mu.Lock()
		stopped := t.stopped
		t.mu.Unlock()
		if stopped {
			return
		}
		t.fn(t.clock.Now())
		t.mu.Lock()
		if !t.stopped {
			t.arm()
		}
		t.mu.Unlock()
	})
}

// Stop prevents future ticks. It does not interrupt a tick in progress.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}
