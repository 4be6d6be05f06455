package vtime_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hpu"
)

// TestSubmitAllocs pins what the engine adds to a simulated Submit:
// nothing. The heap holds its events by value and a request's completion
// is a method of its resource, so neither scheduling nor completing an
// event allocates. A 1024-task CPU batch on HPU1 is four core requests,
// each carrying its chunk's ops and the batch's working set, priced at
// dispatch by the CPU's bound price function, and sharing one join
// recycled by the core resource (6 allocations when each chunk built a
// duration closure and the batch a join closure with its counter; 18 when,
// besides, each request scheduled a closure and the heap boxed each
// event). A device launch is one queue request (3 then, none now).
func TestSubmitAllocs(t *testing.T) {
	sim := hpu.MustSim(hpu.HPU1())
	b := core.Batch{Tasks: 1024, Cost: core.Cost{Ops: 1}}
	for _, c := range []struct {
		name string
		u    core.LevelExecutor
		want float64
	}{{"simcpu", sim.CPU(), 0}, {"simgpu", sim.GPU(), 0}} {
		got := testing.AllocsPerRun(50, func() {
			c.u.Submit(b, nil)
			sim.Wait()
		})
		if got > c.want {
			t.Errorf("%s: a Submit and its Wait allocated %g times, want at most %g", c.name, got, c.want)
		}
	}
}
