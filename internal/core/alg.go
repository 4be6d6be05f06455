package core

import "sync/atomic"

// Alg describes a regular divide-and-conquer algorithm after the paper's
// Algorithm 2 rewrite: execution proceeds breadth-first over the recursion
// tree, where level l (counted from the root, level 0) holds a^l independent
// subproblems of size n/b^l. Subproblems at each level are indexed
// contiguously left to right, so a contiguous index range corresponds to a
// contiguous region of the data — the property the advanced work division
// uses to split the input α : (1−α) between CPU and GPU.
//
// An algorithm with a trivial phase (mergesort has no divide work, sum has no
// base work) returns an empty Batch for it.
//
// The three batch constructors must be pure: they describe work and touch
// neither the data nor any state another constructor reads or writes, so
// that calling one is safe at any time, in any order, from any goroutine.
// The executors rely on it twice. An executor constructs a batch at the
// moment it submits it (plan.go), and the chains of a hybrid run advance
// independently, so the CPU portion's constructors run beside the device
// chains' — including a Transformable's, which do mutate layout state.
// And CoarseBatch (grain.go) constructs every level of a subtree up front,
// before any of them has run. All effects belong in the batch's body.
type Alg interface {
	// Name identifies the algorithm in traces and reports.
	Name() string
	// Arity is the branching factor a of T(n) = a·T(n/b) + f(n).
	Arity() int
	// Shrink is the size divisor b.
	Shrink() int
	// N is the input size of the instance.
	N() int
	// Levels is the number of internal levels of the recursion tree: level
	// indices run 0..Levels()-1, and the leaf (base-case) level is
	// Levels(). For n = b^L this is L.
	Levels() int

	// DivideBatch returns the top-down divide work for subproblems
	// [lo, hi) of level l (0 ≤ l < Levels()).
	DivideBatch(level, lo, hi int) Batch
	// BaseBatch returns the base-case work for leaves [lo, hi) of the leaf
	// level.
	BaseBatch(lo, hi int) Batch
	// CombineBatch returns the bottom-up combine work for subproblems
	// [lo, hi) of level l, assuming all their children are solved.
	CombineBatch(level, lo, hi int) Batch
}

// GPUAlg is implemented by algorithms that can execute on the device. The
// paper's HPU model (§3) charges a device for its link, λ + δ·w, and its
// compute, γ·g; GPUBytes is w, the link term, and is all a device needs of an
// algorithm beyond Alg: the device runs the CPU constructors' batches — the
// paper's Algorithm 3 kernel is Algorithm 2's per-task body — unless the
// algorithm declares kernels of its own (DeviceKernels).
type GPUAlg interface {
	Alg
	// GPUBytes reports how many bytes must cross the host-device link to
	// ship subproblems [lo, hi) of level l (the same amount returns).
	GPUBytes(level, lo, hi int) int64
}

// DeviceKernels is implemented by a GPUAlg whose device batches differ from
// its CPU ones: a different per-thread kernel (Algorithm 3 of the paper) or
// different cost annotations (coalescing, §6.3). The executors submit its
// batches in place of the CPU constructors' on every device. Unlike the CPU
// constructors these may read the layout state a Transformable keeps: within
// one device chain the executors call them strictly in execution order, each
// after the batch before it has completed, and never for a subproblem range
// another chain owns.
type DeviceKernels interface {
	// GPUDivideBatch is DivideBatch as the device runs it.
	GPUDivideBatch(level, lo, hi int) Batch
	// GPUBaseBatch is BaseBatch as the device runs it.
	GPUBaseBatch(lo, hi int) Batch
	// GPUCombineBatch is CombineBatch as the device runs it.
	GPUCombineBatch(level, lo, hi int) Batch
}

// Solver is implemented by algorithms with a direct kernel for a whole
// subtree — the paper's §7 truncated recursion. Solve(level, idx) solves
// subtree idx of level in place: afterwards every slot holds exactly what
// that subtree's divide, base and combine batches would have left there.
// It touches only the subtree's data, so concurrent calls on distinct
// subtrees are safe. A coarse task (CoarseBatch) calls it instead of
// walking the levels; its Cost still prices the levels, so the simulated
// clock and every plan are the same with or without it.
type Solver interface {
	Solve(level, idx int)
}

// Modeled is implemented by algorithms that export the paper's cost model
// of their recurrence T(n) = a·T(n/b) + f(n) — every built-in one does. The
// serving layer prices placement and Strategy Auto with it, the facade's
// PlanAdvanced picks (α, y) with it; an algorithm without it still runs.
type Modeled interface {
	// ModelF returns f, the divide-plus-combine cost of one subproblem of
	// the given size, in model units (one CPU scalar operation each).
	ModelF() func(size float64) float64
	// ModelLeaf is the cost of one base case in the same units.
	ModelLeaf() float64
}

// Transformable is implemented by algorithms that support the paper's §6.3
// memory-coalescing layout transformation: before running device levels the
// data region for subproblem range [lo,hi) at the given level is permuted so
// that the i-th elements of all sublists are contiguous, and permuted back
// before the CPU resumes. The two constructors — and GPUCombineBatch between
// them — may update the region's layout state when called, not only when
// their batch runs; chains over disjoint ranges call them concurrently.
type Transformable interface {
	// PermuteForGPU rearranges [lo,hi) of level l into device layout and
	// returns the cost of doing so on the device.
	PermuteForGPU(level, lo, hi int) Batch
	// PermuteBack restores host layout.
	PermuteBack(level, lo, hi int) Batch
}

// Finisher is implemented by algorithms with work to do once a run has
// produced their result: a complete, fault-free run calls Finish once, after
// its last batch; a partial one never does.
type Finisher interface {
	Finish()
}

// Releaser is implemented by algorithm instances whose working buffers are
// leased from internal/mempool. Release returns those buffers to the pool;
// it must be called at most once per owner, only when no result slice
// obtained from the instance is still referenced, and never concurrently
// with execution. Implementations are idempotent so a single owner may call
// it defensively, but two owners must not both call it. The serving layers
// invoke Release on instances they created themselves (retry, hedge and
// fallback attempts; API-built jobs at eviction) — never on caller-owned
// instances.
type Releaser interface {
	Release()
}

// ReleaseAlg releases a, if it supports it. Safe on nil.
func ReleaseAlg(a Alg) {
	if r, ok := a.(Releaser); ok {
		r.Release()
	}
}

// TasksAtLevel returns a^level, the total number of subproblems at a level.
func TasksAtLevel(a, level int) int {
	t := 1
	for i := 0; i < level; i++ {
		t *= a
	}
	return t
}

// Join returns a completion callback that invokes then after being called n
// times. It is safe for concurrent use (the native backend calls completions
// from multiple goroutines).
func Join(n int, then func()) func() {
	if n <= 0 {
		panic("core: Join requires n > 0")
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	return func() {
		if remaining.Add(-1) == 0 {
			then()
		}
	}
}
