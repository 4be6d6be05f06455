// Package core implements the paper's primary contribution: a generic
// framework that turns a recursive divide-and-conquer algorithm into a
// breadth-first form whose per-level task batches can be scheduled across a
// hybrid CPU-GPU platform (the "HPU" of López-Ortiz, Salinger and Suderman),
// together with the basic (§5.1) and advanced (§5.2) work-division
// strategies.
//
// The framework is backend-agnostic: batches execute either on the simulated
// platform of internal/hpu (virtual time, calibrated to the paper's two test
// machines) or on the real-goroutine backend of internal/native.
package core

// Cost describes the abstract cost of a single task in units normalized to
// one CPU core (γ_c = 1 in the paper's model). Device backends turn a Cost
// into a service time using their own rate parameters.
type Cost struct {
	// Ops is the number of scalar operations the task performs, at
	// normalized CPU speed 1 op per unit work.
	Ops float64
	// MemWords is the number of 4-byte words the task moves to or from
	// global memory. On the simulated GPU uncoalesced word traffic is
	// penalized; on the simulated CPU it drives bandwidth contention.
	MemWords float64
	// Coalesced reports whether the task's global-memory access pattern is
	// coalesced across adjacent work-items (§6.3 of the paper). It only
	// affects GPU execution.
	Coalesced bool
	// Divergent reports whether work-items follow data-dependent control
	// flow (e.g. one sequential merge per thread). Divergent kernels defeat
	// the device's SIMD latency hiding and run at the single-thread rate γ
	// per lane — exactly the assumption of the paper's §5 model. Uniform
	// kernels (element-wise sum, the Fig 9 binary-search merge) reach the
	// device's full saturated throughput.
	Divergent bool
	// WorkingSet is the number of bytes the batch as a whole touches; the
	// CPU backend compares it against last-level cache capacity.
	WorkingSet int64
}

// Scale returns c with Ops and MemWords multiplied by k.
func (c Cost) Scale(k float64) Cost {
	c.Ops *= k
	c.MemWords *= k
	return c
}

// Batch is a homogeneous set of independent tasks, typically one recursion
// level (or a contiguous index slice of one level) of a breadth-first
// divide-and-conquer execution.
type Batch struct {
	// Tasks is the number of independent tasks in the batch.
	Tasks int
	// Cost is the per-task cost. When CostOps is set, Cost still supplies
	// the memory/coalescing/divergence profile but its Ops field describes
	// the average task (used by backends that do not price items
	// individually).
	Cost Cost
	// CostOps, if non-nil, returns task i's scalar op count, for batches
	// with heterogeneous tasks (e.g. ragged merges near a non-power-of-two
	// input's end). The simulated GPU prices such batches at SIMD
	// wavefront granularity: every lane of a wavefront pays its slowest
	// item.
	CostOps func(i int) float64
	// Run performs task i functionally on host memory. Backends may invoke
	// it concurrently for distinct i, so it must be safe for disjoint
	// indices.
	Run func(i int)
	// RunRange is the other form of the same body: tasks lo..hi−1 in
	// ascending order as one call, for tasks of an add or two, where the
	// indirect call per task is the cost (DESIGN.md §3); safe for disjoint
	// ranges. A batch sets Run or RunRange, never both — neither for a pure
	// cost-model batch (no data movement) — and is executed through Each.
	RunRange func(lo, hi int)
	// Level is the recursion level this batch belongs to (0 = root),
	// stamped by the interpreter, which reports it as Interval.Level.
	// Backends do not interpret it.
	Level int
}

// Empty reports whether the batch contains no tasks.
func (b Batch) Empty() bool { return b.Tasks <= 0 }

// Each performs tasks lo..hi−1 of the batch in ascending order through
// whichever body it has, and nothing for a cost-model batch.
func (b Batch) Each(lo, hi int) { each(b.Run, b.RunRange, lo, hi) }

// each is Each for CoarseBatch's phases, which keep only the two body words
// of a batch.
func each(run func(i int), runRange func(lo, hi int), lo, hi int) {
	if runRange != nil {
		runRange(lo, hi)
		return
	}
	if run != nil {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}
}

// LevelExecutor runs batches on one processing unit. Submit is asynchronous:
// done fires (exactly once) when the whole batch has completed. On the
// simulated backend done runs inside the event loop; on the native backend it
// runs on an arbitrary goroutine. Multiple batches submitted without waiting
// are serviced concurrently up to the unit's parallelism.
type LevelExecutor interface {
	// Submit schedules the batch and returns immediately.
	Submit(b Batch, done func())
	// Parallelism reports the unit's usable degree of parallelism: p for a
	// CPU, the empirical saturation thread count g for a GPU.
	Parallelism() int
}

// Backend is a hybrid platform the executors in this package can drive.
type Backend interface {
	// CPU returns the multi-core unit. Never nil.
	CPU() LevelExecutor
	// GPU returns the device unit, or nil for a CPU-only platform.
	GPU() LevelExecutor
	// GPUGamma reports the GPU:CPU scalar speed ratio γ < 1 (0 if no GPU).
	GPUGamma() float64
	// TransferToGPU moves n bytes host→device and calls done on completion.
	TransferToGPU(n int64, done func())
	// TransferToCPU moves n bytes device→host and calls done on completion.
	TransferToCPU(n int64, done func())
	// Now reports elapsed time in seconds: virtual time on the simulator,
	// wall-clock time on the native backend.
	Now() float64
	// Wait blocks until all submitted work (including chained completions)
	// has finished. On the simulator this drives the event loop.
	Wait()
}
