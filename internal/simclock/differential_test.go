package simclock

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// scriptClock is what the differential script drives: the Simulated clock
// and the reference model both provide it.
type scriptClock interface {
	Clock
	AdvanceTo(time.Time)
	RunUntilIdle() time.Time
	Pending() int
}

// refClock is the reference model: the pending calls in a slice kept sorted
// by (when, seq), compared as time.Time values the way the clock did before
// it keyed its queue by offset. It is deliberately naive — no keys, no
// heap, stopping is a linear search.
type refClock struct {
	now     time.Time
	queue   []*refEvent // sorted by (when, seq)
	nextSeq uint64
}

type refEvent struct {
	when time.Time
	seq  uint64
	fn   func()
	c    *refClock
	done bool // fired or stopped
}

func (c *refClock) Now() time.Time { return c.now }

func (c *refClock) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{when: c.now.Add(d), seq: c.nextSeq, fn: f, c: c}
	c.nextSeq++
	// seq only grows, so the new event goes after every event whose
	// deadline is not later.
	i := sort.Search(len(c.queue), func(i int) bool { return c.queue[i].when.After(ev.when) })
	c.queue = append(c.queue, nil)
	copy(c.queue[i+1:], c.queue[i:])
	c.queue[i] = ev
	return ev
}

// AfterDeliver is, in the model, what the interface promises it is: an
// AfterFunc call nobody stops.
func (c *refClock) AfterDeliver(d time.Duration, sink Sink, arg uint64) {
	c.AfterFunc(d, func() { sink.Deliver(arg) })
}

func (e *refEvent) Stop() bool {
	if e.done {
		return false
	}
	e.done = true
	q := e.c.queue
	for i := range q {
		if q[i] == e {
			e.c.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	return true
}

func (c *refClock) AdvanceTo(target time.Time) {
	for len(c.queue) > 0 && !c.queue[0].when.After(target) {
		ev := c.queue[0]
		c.queue = c.queue[1:]
		ev.done = true
		if ev.when.After(c.now) {
			c.now = ev.when
		}
		ev.fn()
	}
	if target.After(c.now) {
		c.now = target
	}
}

func (c *refClock) RunUntilIdle() time.Time {
	for len(c.queue) > 0 {
		c.AdvanceTo(c.queue[0].when)
	}
	return c.now
}

func (c *refClock) Pending() int { return len(c.queue) }

// scriptZones are the Locations the script hands AdvanceTo its targets in.
// They are shared by every run: two time.Time values are == only if they
// point at the same Location.
var scriptZones = []*time.Location{time.UTC, time.FixedZone("east", 5*3600), time.FixedZone("west", -8*3600)}

// scriptStep is one observation the script makes of the clock.
type scriptStep struct {
	what    string
	id      int
	now     time.Time
	ok      bool
	pending int
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(arg uint64)

func (f sinkFunc) Deliver(arg uint64) { f(arg) }

// runScript drives c through ops seeded random operations and returns
// everything it observed: each callback with the Now() it saw, each Stop
// result, Pending() and Now() after every top-level operation. All
// randomness is drawn from one generator, so two clocks that behave alike
// see the same script and a divergence shows in the log.
func runScript(c scriptClock, seed int64, ops int) []scriptStep {
	return runMixedScript(c, seed, ops, false)
}

// runMixedScript is runScript, and with deliveries set it schedules half
// its calls with AfterDeliver instead of AfterFunc: those run the same
// callback, log "deliver" rather than "fire", and have no Timer to stop.
func runMixedScript(c scriptClock, seed int64, ops int, deliveries bool) []scriptStep {
	rng := rand.New(rand.NewSource(seed))
	var (
		log    []scriptStep
		timers []Timer
		huge   []Timer // deadlines past the clock's span: never allowed to fire
		inside bool    // a callback is running
	)
	observe := func(what string, id int, ok bool) {
		log = append(log, scriptStep{what, id, c.Now(), ok, c.Pending()})
	}
	stopOne := func() {
		if len(timers) == 0 {
			return
		}
		id := rng.Intn(len(timers))
		if rng.Intn(4) != 0 && len(timers) > 200 {
			// Mostly a recent one, which is likely still pending.
			id = len(timers) - 1 - rng.Intn(200)
		}
		if timers[id] == nil {
			return // a delivery
		}
		observe("stop", id, timers[id].Stop())
		if rng.Intn(4) == 0 {
			observe("stop-again", id, timers[id].Stop())
		}
	}
	duration := func() time.Duration {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return -time.Duration(rng.Intn(1000)) * time.Millisecond
		case 2, 3, 4:
			// A few fixed values, so deadlines collide and seq decides.
			return []time.Duration{time.Millisecond, 5 * time.Millisecond, time.Second}[rng.Intn(3)]
		case 5:
			if !inside && rng.Intn(20) == 0 {
				return 3650 * 24 * time.Hour
			}
			return time.Duration(rng.Intn(3600)) * time.Second
		default:
			return time.Duration(rng.Int63n(int64(2 * time.Second)))
		}
	}
	var schedule func()
	fire := func(what string, id int) {
		inside = true
		observe(what, id, false)
		switch rng.Intn(10) {
		case 0, 1, 2:
			schedule()
		case 3:
			stopOne()
		case 4:
			// Its own timer, from inside its own callback.
			if timers[id] != nil {
				observe("stop-self", id, timers[id].Stop())
			}
		}
		inside = false
	}
	deliver := sinkFunc(func(arg uint64) { fire("deliver", int(arg)) })
	schedule = func() {
		id := len(timers)
		timers = append(timers, nil)
		d := duration()
		if deliveries && rng.Intn(2) == 0 {
			c.AfterDeliver(d, deliver, uint64(id))
			return
		}
		timers[id] = c.AfterFunc(d, func() { fire("fire", id) })
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 50:
			schedule()
		case r < 62:
			stopOne()
		case r < 64:
			huge = append(huge, c.AfterFunc(math.MaxInt64, func() { panic("fired a deadline 292 years out") }))
		case r < 97:
			step := time.Duration(rng.Int63n(int64(3 * time.Second)))
			if rng.Intn(8) == 0 {
				step = -step // backwards: a no-op
			}
			c.AdvanceTo(c.Now().Add(step).In(scriptZones[rng.Intn(len(scriptZones))]))
		case r < 99:
			c.AdvanceTo(c.Now())
		default:
			if rng.Intn(20) != 0 {
				continue
			}
			for _, t := range huge {
				observe("stop-huge", -1, t.Stop())
			}
			huge = huge[:0]
			log = append(log, scriptStep{what: "idle", now: c.RunUntilIdle()})
		}
		observe("op", i, false)
	}
	return log
}

// TestSimulatedMatchesReferenceModel runs the same seeded script on the
// Simulated clock and on the sorted-slice model and requires them to be
// indistinguishable: same fire order, the same Now() inside every callback
// — the same instant and the same time.Time value, Location included —
// the same Stop results and the same Pending() throughout.
func TestSimulatedMatchesReferenceModel(t *testing.T) {
	starts := []time.Time{
		{},
		epoch,
		time.Date(2300, 6, 1, 12, 0, 0, 0, time.UTC),
		time.Date(2021, 11, 1, 9, 0, 0, 0, time.FixedZone("CET", 3600)),
		time.Now(), // carries a monotonic reading
	}
	seeds, ops := 100, 10000
	if testing.Short() {
		seeds = 10
	}
	fired := 0
	for seed := 0; seed < seeds; seed++ {
		start := starts[seed%len(starts)]
		got := runScript(NewSimulated(start), int64(seed), ops)
		want := runScript(&refClock{now: start}, int64(seed), ops)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, model made %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || !got[i].now.Equal(want[i].now) {
				t.Fatalf("seed %d, observation %d:\n got %+v\nwant %+v", seed, i, got[i], want[i])
			}
			if got[i].what == "fire" {
				fired++
			}
		}
	}
	if fired < seeds*ops/4 {
		t.Fatalf("only %d callbacks fired over %d operations: the script is not exercising the queue", fired, seeds*ops)
	}
}

// TestDeliveriesMatchReferenceModel runs the differential script with half
// its calls scheduled by AfterDeliver. The model's AfterDeliver is an
// AfterFunc call, so every delivery must run in the order, and see a Now()
// == to the one, that AfterFunc would have given it — while the clock
// recycles the events of the deliveries that have fired.
func TestDeliveriesMatchReferenceModel(t *testing.T) {
	starts := []time.Time{
		epoch,
		time.Date(2021, 11, 1, 9, 0, 0, 0, time.FixedZone("CET", 3600)),
		time.Now(),
	}
	seeds, ops := 30, 10000
	if testing.Short() {
		seeds = 6
	}
	delivered := 0
	for seed := 0; seed < seeds; seed++ {
		start := starts[seed%len(starts)]
		sim := NewSimulated(start)
		got := runMixedScript(sim, int64(seed), ops, true)
		want := runMixedScript(&refClock{now: start}, int64(seed), ops, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, model made %d", seed, len(got), len(want))
		}
		n := 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, observation %d:\n got %+v\nwant %+v", seed, i, got[i], want[i])
			}
			if got[i].what == "deliver" {
				n++
			}
		}
		if made := len(sim.deliveries) * deliveryChunk; made >= n {
			t.Fatalf("seed %d: %d delivery events made for %d deliveries: none recycled", seed, made, n)
		}
		delivered += n
	}
	if delivered < seeds*ops/8 {
		t.Fatalf("only %d deliveries over %d operations: the script is not exercising them", delivered, seeds*ops)
	}
}

// TestAfterDeliverAllocatesNothing: once the clock has as many delivery
// events as there are deliveries pending, scheduling one allocates nothing.
func TestAfterDeliverAllocatesNothing(t *testing.T) {
	c := NewSimulated(epoch)
	var sum uint64
	sink := sinkFunc(func(arg uint64) { sum += arg })
	for i := 0; i < 4096; i++ {
		c.AfterDeliver(time.Hour, sink, 1)
	}
	c.Advance(time.Hour)
	if avg := testing.AllocsPerRun(2000, func() {
		c.AfterDeliver(time.Minute, sink, 1)
		c.Advance(time.Minute)
	}); avg != 0 {
		t.Fatalf("AfterDeliver allocates %.1f times, want 0", avg)
	}
	if sum != 4096+2001 {
		t.Fatalf("deliveries summed to %d, want %d", sum, 4096+2001)
	}
}

// TestAfterFuncAllocatesOnce: the Timer handle is the only allocation a
// scheduled call costs (the caller's closure is the caller's).
func TestAfterFuncAllocatesOnce(t *testing.T) {
	c := NewSimulated(epoch)
	f := func() {}
	// Let the queue's backing array reach its size first.
	for i := 0; i < 4096; i++ {
		c.AfterFunc(time.Hour, f)
	}
	c.Advance(time.Hour)
	if avg := testing.AllocsPerRun(2000, func() { c.AfterFunc(time.Minute, f) }); avg > 1 {
		t.Fatalf("AfterFunc allocates %.1f times, want 1", avg)
	}
}

// TestStopShrinksQueue: a stopped call leaves the queue at once, from
// wherever in the heap it sits, and the rest still fire in order.
func TestStopShrinksQueue(t *testing.T) {
	c := NewSimulated(epoch)
	const n = 1000
	var order []int
	timers := make([]Timer, n)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		i := i
		timers[i] = c.AfterFunc(time.Duration(i)*time.Second, func() { order = append(order, i) })
	}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			if !timers[i].Stop() {
				t.Fatalf("Stop(%d) = false on a pending timer", i)
			}
		}
	}
	kept := (n + 2) / 3
	if c.Pending() != kept || len(c.queue) != kept {
		t.Fatalf("Pending = %d, queue holds %d, want %d", c.Pending(), len(c.queue), kept)
	}
	c.Advance(n * time.Second)
	if len(order) != kept || !sort.IntsAreSorted(order) {
		t.Fatalf("%d calls ran, sorted %v; want %d in order", len(order), sort.IntsAreSorted(order), kept)
	}
	for _, i := range order {
		if i%3 != 0 {
			t.Fatalf("stopped call %d ran", i)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after everything fired", c.Pending())
	}
}
