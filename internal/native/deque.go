package native

import "sync/atomic"

// span is a contiguous index range [lo, hi) of one submitted batch. It is
// the unit of scheduling in the work-stealing engine: workers pop spans from
// their own deque bottom, thieves steal whole spans from the top, and a
// worker that notices hungry peers splits its current span in half rather
// than handing over single tasks — stealing moves an index range, never one
// task at a time.
type span struct {
	j      *job
	lo, hi int
}

// deque is a fixed-capacity Chase-Lev work-stealing deque of *span. The
// owning worker pushes and pops at the bottom (LIFO, cache-warm); any other
// worker steals from the top (FIFO, so thieves take the oldest — and after
// halving-splits, largest — span). Slots hold pointers behind atomics, so
// every cross-thread access is a plain atomic load/store/CAS and the
// implementation is race-detector-clean without unsafe.
//
// The capacity is fixed: push reports failure when the deque is full and the
// caller keeps the span for itself (it executes the range inline instead of
// exposing it to thieves), so overflow degrades granularity, never drops
// work and never allocates.
type deque struct {
	top  atomic.Int64 // next index to steal (only ever incremented)
	_    [56]byte     // keep top and bottom on separate cache lines
	bot  atomic.Int64 // next index to push (owner-written)
	_    [56]byte
	buf  []atomic.Pointer[span]
	mask int64
}

const dequeCapacity = 256 // spans per worker; plenty for halving-splits (log2 of any range)

func newDeque() *deque {
	d := &deque{buf: make([]atomic.Pointer[span], dequeCapacity)}
	d.mask = int64(len(d.buf) - 1)
	return d
}

// push appends s at the bottom. Owner only. Returns false when full.
func (d *deque) push(s *span) bool {
	b := d.bot.Load()
	t := d.top.Load()
	if b-t >= int64(len(d.buf)) {
		return false
	}
	// The slot at b cannot be observed by a thief until bot is published,
	// and cannot still be claimed by an old steal: top ≤ b-cap < b holds.
	d.buf[b&d.mask].Store(s)
	d.bot.Store(b + 1)
	return true
}

// pop removes and returns the bottom span, or nil. Owner only.
func (d *deque) pop() *span {
	b := d.bot.Load() - 1
	d.bot.Store(b) // reserve; thieves now stop at b
	t := d.top.Load()
	if t > b {
		// Empty: undo the reservation.
		d.bot.Store(b + 1)
		return nil
	}
	s := d.buf[b&d.mask].Load()
	if t == b {
		// Last element: race the thieves for it via top.
		if !d.top.CompareAndSwap(t, t+1) {
			s = nil // a thief won
		}
		d.bot.Store(b + 1)
		return s
	}
	return s
}

// steal removes and returns the top span, or nil. Any worker.
func (d *deque) steal() *span {
	for {
		t := d.top.Load()
		b := d.bot.Load()
		if t >= b {
			return nil
		}
		// Safe to read before the CAS: the slot at t&mask cannot be
		// overwritten by a push while top == t (pushes keep bot-top < cap),
		// and a successful CAS proves top was still t.
		s := d.buf[t&d.mask].Load()
		if d.top.CompareAndSwap(t, t+1) {
			return s
		}
		// Lost to the owner's pop or another thief; retry from fresh top.
	}
}

// drain empties the deque from the owner side, invoking f on every span.
// Owner only; used when a worker exits on Close to unwind leftover spans.
func (d *deque) drain(f func(*span)) {
	for {
		s := d.pop()
		if s == nil {
			return
		}
		f(s)
	}
}
