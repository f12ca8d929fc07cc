package simclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	c.Advance(time.Hour)
	if got := c.Now(); !got.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("Now() after advance = %v, want %v", got, epoch.Add(time.Hour))
	}
}

func TestAfterFuncRunsInOrder(t *testing.T) {
	c := NewSimulated(epoch)
	var order []int
	c.AfterFunc(3*time.Minute, func() { order = append(order, 3) })
	c.AfterFunc(1*time.Minute, func() { order = append(order, 1) })
	c.AfterFunc(2*time.Minute, func() { order = append(order, 2) })
	c.Advance(5 * time.Minute)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestAfterFuncSameDeadlineFIFO(t *testing.T) {
	c := NewSimulated(epoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Minute, func() { order = append(order, i) })
	}
	c.Advance(time.Minute)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestAfterFuncNotRunBeforeDeadline(t *testing.T) {
	c := NewSimulated(epoch)
	ran := false
	c.AfterFunc(time.Hour, func() { ran = true })
	c.Advance(59 * time.Minute)
	if ran {
		t.Fatal("function ran before its deadline")
	}
	c.Advance(time.Minute)
	if !ran {
		t.Fatal("function did not run at its deadline")
	}
}

func TestTimerStop(t *testing.T) {
	c := NewSimulated(epoch)
	ran := false
	timer := c.AfterFunc(time.Minute, func() { ran = true })
	if !timer.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if timer.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Advance(2 * time.Minute)
	if ran {
		t.Fatal("stopped timer still fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	c := NewSimulated(epoch)
	timer := c.AfterFunc(time.Minute, func() {})
	c.Advance(time.Minute)
	if timer.Stop() {
		t.Fatal("Stop() after firing = true, want false")
	}
}

func TestNegativeDurationRunsOnNextAdvance(t *testing.T) {
	c := NewSimulated(epoch)
	ran := false
	c.AfterFunc(-time.Second, func() { ran = true })
	if ran {
		t.Fatal("function ran without an advance")
	}
	c.Advance(0)
	if !ran {
		t.Fatal("function did not run on zero advance")
	}
}

func TestNowDuringCallback(t *testing.T) {
	c := NewSimulated(epoch)
	var seen time.Time
	c.AfterFunc(10*time.Minute, func() { seen = c.Now() })
	c.Advance(time.Hour)
	if want := epoch.Add(10 * time.Minute); !seen.Equal(want) {
		t.Fatalf("Now() during callback = %v, want %v", seen, want)
	}
}

func TestRescheduleDuringAdvance(t *testing.T) {
	c := NewSimulated(epoch)
	var times []time.Duration
	var step func()
	step = func() {
		times = append(times, c.Now().Sub(epoch))
		if len(times) < 5 {
			c.AfterFunc(time.Minute, step)
		}
	}
	c.AfterFunc(time.Minute, step)
	c.Advance(time.Hour)
	if len(times) != 5 {
		t.Fatalf("got %d invocations, want 5", len(times))
	}
	for i, d := range times {
		if want := time.Duration(i+1) * time.Minute; d != want {
			t.Fatalf("invocation %d at %v, want %v", i, d, want)
		}
	}
}

func TestEventBeyondWindowStaysQueued(t *testing.T) {
	c := NewSimulated(epoch)
	ran := 0
	c.AfterFunc(time.Minute, func() {
		ran++
		c.AfterFunc(2*time.Hour, func() { ran++ })
	})
	c.Advance(time.Hour)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
	c.Advance(2 * time.Hour)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestRunUntilIdle(t *testing.T) {
	c := NewSimulated(epoch)
	count := 0
	c.AfterFunc(time.Minute, func() { count++ })
	c.AfterFunc(time.Hour, func() { count++ })
	end := c.RunUntilIdle()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if !end.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("end = %v, want %v", end, epoch.Add(time.Hour))
	}
}

func TestTicker(t *testing.T) {
	c := NewSimulated(epoch)
	var ticks []time.Time
	tk := NewTicker(c, 10*time.Minute, func(now time.Time) { ticks = append(ticks, now) })
	c.Advance(35 * time.Minute)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, tick := range ticks {
		if want := epoch.Add(time.Duration(i+1) * 10 * time.Minute); !tick.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
	tk.Stop()
	c.Advance(time.Hour)
	if len(ticks) != 3 {
		t.Fatalf("ticker fired after Stop: %d ticks", len(ticks))
	}
}

func TestTickerStopDuringCallback(t *testing.T) {
	c := NewSimulated(epoch)
	count := 0
	var tk *Ticker
	tk = NewTicker(c, time.Minute, func(time.Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	c.Advance(time.Hour)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestSimulatedConcurrentAfterFunc(t *testing.T) {
	c := NewSimulated(epoch)
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AfterFunc(time.Minute, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	c.Advance(time.Minute)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Real.AfterFunc never fired")
	}
}

func TestRealTimerStop(t *testing.T) {
	var c Clock = Real{}
	timer := c.AfterFunc(time.Hour, func() { t.Error("should not fire") })
	if !timer.Stop() {
		t.Fatal("Stop() = false, want true")
	}
}

// TestRealAfterDeliver: the real clock delivers too, after the delay.
func TestRealAfterDeliver(t *testing.T) {
	got := make(chan uint64, 1)
	start := time.Now()
	Real{}.AfterDeliver(5*time.Millisecond, sinkFunc(func(arg uint64) { got <- arg }), 7)
	select {
	case arg := <-got:
		if arg != 7 || time.Since(start) < 5*time.Millisecond {
			t.Fatalf("delivered %d after %v, want 7 after 5ms", arg, time.Since(start))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
}
