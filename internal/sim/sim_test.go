package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New(1)
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := New(1)
	var at Time
	e.At(5*time.Millisecond, func() {
		e.After(7*time.Millisecond, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 12*time.Millisecond {
		t.Errorf("After fired at %v, want 12ms", at)
	}
}

func TestPastClampedToNow(t *testing.T) {
	e := New(1)
	fired := false
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { fired = true }) // in the past
	})
	e.RunAll()
	if !fired {
		t.Error("past-scheduled event never fired")
	}
	if e.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v, want 10ms (past event must not rewind time)", e.Now())
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	e := New(1)
	fired := false
	e.After(-5*time.Second, func() { fired = true })
	e.RunAll()
	if !fired || e.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.At(time.Millisecond, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestRunHorizon(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, d := range []Time{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond} {
		d := d
		e.At(d, func() { fired = append(fired, d) })
	}
	e.Run(20 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if e.Now() != 20*time.Millisecond {
		t.Errorf("Now = %v, want horizon 20ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run(time.Second)
	if len(fired) != 3 {
		t.Errorf("event after horizon never fired on later Run")
	}
}

func TestRunAdvancesToHorizonWhenEmpty(t *testing.T) {
	e := New(1)
	e.Run(time.Second)
	if e.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", e.Now())
	}
}

func TestDispatchedCount(t *testing.T) {
	e := New(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i)*time.Millisecond, func() {})
	}
	ev := e.At(time.Millisecond, func() {})
	ev.Cancel()
	e.RunAll()
	if e.Dispatched() != 5 {
		t.Errorf("Dispatched = %d, want 5 (cancelled events don't count)", e.Dispatched())
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, e.Rand().Int63n(1000))
			if len(draws) < 20 {
				e.After(time.Duration(e.Rand().Intn(10)+1)*time.Millisecond, tick)
			}
		}
		e.After(0, tick)
		e.RunAll()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different event/draw sequences")
		}
	}
}

// Property: for any batch of random schedule times, dispatch order is the
// sorted order (stable for ties).
func TestDispatchOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(1)
		n := 50
		times := make([]Time, n)
		var got []int
		for i := 0; i < n; i++ {
			times[i] = Time(rng.Intn(20)) * time.Millisecond
			i := i
			e.At(times[i], func() { got = append(got, i) })
		}
		e.RunAll()
		if len(got) != n {
			return false
		}
		for k := 1; k < n; k++ {
			ta, tb := times[got[k-1]], times[got[k]]
			if ta > tb {
				return false
			}
			if ta == tb && got[k-1] > got[k] {
				return false // FIFO violated among ties
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: virtual time never decreases across dispatches.
func TestMonotonicTimeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		ok := true
		last := Time(0)
		var spawn func()
		spawn = func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if e.Dispatched() < 100 {
				e.After(Time(rng.Intn(5))*time.Millisecond, spawn)
			}
		}
		for i := 0; i < 5; i++ {
			e.At(Time(rng.Intn(10))*time.Millisecond, spawn)
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleDispatch(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%100)*time.Microsecond, func() {})
		if i%1024 == 0 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// Cancelled reports whether Cancel was called.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Dispatched returns the number of events executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// RunAll dispatches every remaining event.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return e.queue.Len() }
