// Package sim provides the deterministic discrete-event simulation engine
// that drives the experiment testbed. Virtual time advances only when the
// engine dispatches the next scheduled event, so a five-minute experiment
// run (the paper's duration) executes in milliseconds and two runs with
// the same seed produce identical results.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps causality stable across runs — the property every experiment
// in internal/experiments relies on.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Time is virtual time since the start of the run.
type Time = time.Duration

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int // heap index, -1 once popped
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() { ev.cancelled = true }

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the simulation world runs entirely inside event
// callbacks on one goroutine.
type Engine struct {
	now        Time
	queue      eventHeap
	seq        uint64
	rng        *rand.Rand
	dispatched uint64
}

// New returns an engine whose randomness derives from seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded PRNG. All model randomness (loss,
// jitter, noise) must flow from here to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute virtual time t. Times in the past are
// clamped to Now (the event fires after currently pending events at Now).
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn d after the current time. Negative d is clamped to 0.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Step dispatches the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		e.dispatched++
		ev.fn()
		return true
	}
	return false
}

// Run dispatches events until the queue is empty or the next event lies
// beyond the until horizon. Afterwards Now() is min(until, last event
// time) — it advances to until only if the queue drained earlier events.
func (e *Engine) Run(until Time) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if next.cancelled {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// eventHeap orders events by (time, sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
