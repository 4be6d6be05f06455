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
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// event is a scheduled callback: fn, or, when res is set, the completion
// of one of res's requests, whose done is fn and whose group is join — so
// that completing a request allocates nothing.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	res  *Resource
	join int32
}

// eventHeap is a binary min-heap of events, held by value. Every (at, seq)
// is distinct, so events leave it in the same order as any other heap's.
type eventHeap []event

// before reports whether ev runs before o.
func (ev event) before(o event) bool { return ev.at < o.at || ev.at == o.at && ev.seq < o.seq }

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for j := len(q) - 1; j > 0 && q[j].before(q[(j-1)/2]); j = (j - 1) / 2 {
		q[j], q[(j-1)/2] = q[(j-1)/2], q[j]
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	ev, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{}
	for i, j := 0, 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && q[j+1].before(q[j]) {
			j++
		}
		if !q[j].before(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
	}
	*h = q[:n]
	return ev
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
	e.schedule(t, event{fn: fn})
}

// schedule queues ev at time t.
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("vtime: scheduling into the past: t=%g now=%g", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("vtime: non-finite event time %g", t))
	}
	e.seq++
	ev.at, ev.seq = t, e.seq
	e.queue.push(ev)
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
	ev := e.queue.pop()
	e.now = ev.at
	e.processed++
	if e.MaxEvents != 0 && e.processed > e.MaxEvents {
		panic(fmt.Sprintf("vtime: exceeded MaxEvents=%d (runaway event loop?)", e.MaxEvents))
	}
	if ev.res != nil {
		ev.res.finish(ev.fn, ev.join)
		return
	}
	ev.fn()
}
