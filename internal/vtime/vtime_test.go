package vtime

import (
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %g, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := New()
	var times []Time
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	e.At(1, func() { ran++ })
	e.At(5, func() { ran++ })
	e.RunUntil(2)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Now() != 2 {
		t.Errorf("Now() = %g, want 2", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 || e.Now() != 5 {
		t.Errorf("after Run: ran=%d Now=%g", ran, e.Now())
	}
}

func TestPanicsOnPastScheduling(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Run()
	assertPanics(t, "past", func() { e.At(1, func() {}) })
	assertPanics(t, "negative delay", func() { e.After(-1, func() {}) })
	assertPanics(t, "nil fn", func() { e.At(10, nil) })
}

func TestMaxEventsGuard(t *testing.T) {
	e := New()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	assertPanics(t, "runaway loop", e.Run)
}

func TestResourceCapacityAndFIFO(t *testing.T) {
	e := New()
	r := NewResource(e, 2)
	var done []int
	for i := 0; i < 4; i++ {
		i := i
		r.RequestFixed(1, func() { done = append(done, i) })
	}
	if r.Busy() != 2 || r.QueueLen() != 2 {
		t.Fatalf("busy=%d queued=%d, want 2/2", r.Busy(), r.QueueLen())
	}
	e.Run()
	if e.Now() != 2 {
		t.Errorf("4 unit jobs on 2 servers finished at %g, want 2", e.Now())
	}
	for i, v := range done {
		if v != i {
			t.Fatalf("completion order = %v, want FIFO", done)
		}
	}
	if r.BusySeconds() != 4 {
		t.Errorf("BusySeconds = %g, want 4", r.BusySeconds())
	}
}

// TestResourceActiveCount checks that a priced request is priced at
// dispatch with the number of busy servers, itself included.
func TestResourceActiveCount(t *testing.T) {
	e := New()
	var actives []int
	r := NewPricedResource(e, 3, func(amount float64, ws int64, active int) float64 {
		actives = append(actives, active)
		return amount
	})
	join := r.Join(3, nil)
	for i := 0; i < 3; i++ {
		r.Request(1, 0, join)
	}
	e.Run()
	if len(actives) != 3 || actives[0] != 1 || actives[1] != 2 || actives[2] != 3 {
		t.Errorf("active counts = %v, want [1 2 3]", actives)
	}
}

// TestResourceJoin checks a group's completion: its done runs once, when
// the last of its requests completes (not the last submitted: a longer
// request submitted first finishes later), and a closed group's slot is
// reused, so a steady stream of groups allocates nothing.
func TestResourceJoin(t *testing.T) {
	e := New()
	r := NewPricedResource(e, 2, func(amount float64, ws int64, active int) float64 { return amount })
	var fired []Time
	done := func() { fired = append(fired, e.Now()) }
	join := r.Join(3, done)
	r.Request(3, 0, join)
	r.Request(1, 0, join)
	r.Request(1, 0, join)
	e.Run()
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("group of 3 fired at %v, want once at 3", fired)
	}
	if again := r.Join(1, nil); again != join {
		t.Errorf("a closed group's slot was not reused: handle %d, then %d", join, again)
	} else {
		r.Request(0, 0, again)
		e.Run()
	}
	allocs := testing.AllocsPerRun(100, func() {
		join := r.Join(2, done)
		r.Request(1, 0, join)
		r.Request(2, 0, join)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("a group of two requests allocated %g times, want 0", allocs)
	}
}

// TestRequestFixedAllocs pins that neither request form allocates: a
// fixed request keeps its duration in the request, a priced one its amount
// and working set, and the event heap holds both by value. Queued behind
// each other, the two kinds keep FIFO order and their own durations.
func TestRequestFixedAllocs(t *testing.T) {
	e := New()
	r := NewPricedResource(e, 1, func(amount float64, ws int64, active int) float64 { return amount })
	done := func() {}
	priced := testing.AllocsPerRun(100, func() {
		r.Request(1, 0, r.Join(1, done))
		e.Run()
	})
	fixed := testing.AllocsPerRun(100, func() {
		r.RequestFixed(1, done)
		e.Run()
	})
	if priced != 0 || fixed != 0 {
		t.Errorf("a priced request allocated %g times and a fixed one %g, want 0", priced, fixed)
	}

	start := e.Now()
	var ends []Time
	end := func() { ends = append(ends, e.Now()-start) }
	r.RequestFixed(2, end)
	r.Request(3, 0, r.Join(1, end))
	r.RequestFixed(0.5, end)
	e.Run()
	if want := []Time{2, 5, 5.5}; len(ends) != 3 || ends[0] != want[0] || ends[1] != want[1] || ends[2] != want[2] {
		t.Errorf("mixed requests ended at %v, want %v", ends, want)
	}
}

func TestResourceValidation(t *testing.T) {
	e := New()
	assertPanics(t, "zero capacity", func() { NewResource(e, 0) })
	assertPanics(t, "nil price", func() { NewPricedResource(e, 1, nil) })
	r := NewResource(e, 1)
	assertPanics(t, "unpriced Request", func() { r.Request(1, 0, r.Join(1, nil)) })
	assertPanics(t, "empty group", func() { r.Join(0, nil) })
	assertPanics(t, "negative duration", func() {
		r.RequestFixed(-1, nil)
		e.Run()
	})
	p := NewPricedResource(e, 1, func(amount float64, ws int64, active int) float64 { return amount })
	assertPanics(t, "no group", func() { p.Request(1, 0, 0) })
	join := p.Join(1, nil)
	p.Request(1, 0, join)
	e.Run()
	assertPanics(t, "closed group", func() { p.Request(1, 0, join) })
}

// TestResourceConservation checks a queueing invariant with random jobs:
// total busy time equals the sum of service durations, and the makespan is
// at least total/capacity.
func TestResourceConservation(t *testing.T) {
	f := func(durRaw []uint8, capRaw uint8) bool {
		if len(durRaw) == 0 {
			return true
		}
		capacity := 1 + int(capRaw%8)
		e := New()
		r := NewResource(e, capacity)
		total := 0.0
		for _, d := range durRaw {
			dur := float64(d%100) / 10
			total += dur
			r.RequestFixed(dur, nil)
		}
		e.Run()
		if r.BusySeconds() != total {
			return false
		}
		return e.Now() >= total/float64(capacity)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
