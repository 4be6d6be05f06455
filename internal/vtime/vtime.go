// Package vtime provides a deterministic discrete-event simulation engine
// with a virtual clock measured in seconds.
//
// The engine executes scheduled events in nondecreasing time order. Events
// scheduled for the same instant run in FIFO order of scheduling, which keeps
// simulations fully deterministic. All methods must be called from a single
// goroutine (typically the one driving Engine.Run); the engine performs no
// internal locking.
package vtime

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use and
// starts at time 0.
type Engine struct {
	now   Time
	queue eventHeap
	seq   uint64
	// processed counts executed events, for diagnostics and loop guards.
	processed uint64
	// MaxEvents, when nonzero, bounds the number of events Run will execute
	// before panicking; it guards against runaway self-scheduling loops in
	// tests.
	MaxEvents uint64
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it indicates a cost-model bug rather than a recoverable
// condition.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("vtime: nil event function")
	}
	if t < e.now {
		panic(fmt.Sprintf("vtime: scheduling into the past: t=%g now=%g", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("vtime: non-finite event time %g", t))
	}
	e.seq++
	heap.Push(&e.queue, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative delay %g", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events until the queue is empty. Event functions may schedule
// further events; they run in time order.
func (e *Engine) Run() {
	for len(e.queue) > 0 {
		e.step()
	}
}

func (e *Engine) step() {
	ev := heap.Pop(&e.queue).(event)
	e.now = ev.at
	e.processed++
	if e.MaxEvents != 0 && e.processed > e.MaxEvents {
		panic(fmt.Sprintf("vtime: exceeded MaxEvents=%d (runaway event loop?)", e.MaxEvents))
	}
	ev.fn()
}
