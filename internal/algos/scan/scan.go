// Package scan implements an inclusive prefix sum as a divide-and-conquer
// algorithm for the generic hybrid framework: scan both halves, then add the
// left half's total into every element of the right half, giving
// T(n) = 2T(n/2) + Θ(n) — the same cost family as mergesort, so the
// closed-form §5.2.2 model applies. Prefix sums are the canonical GPU
// primitive, and unlike mergesort the combine is a uniform loop (no data-
// dependent branching), so its kernel is non-divergent and benefits from
// the device's full latency-hidden throughput.
package scan

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mempool"

	"repro/internal/dcerr"
)

// Scanner is a breadth-first inclusive-prefix-sum instance over a
// power-of-two input. Sums are int64 to avoid overflow. It implements
// core.GPUAlg and operates in place (combines of distinct subproblems touch
// disjoint segments). Single-use.
type Scanner struct {
	n        int
	l        int
	v        []int64
	finished bool
}

var _ core.GPUAlg = (*Scanner)(nil)
var _ core.Solver = (*Scanner)(nil)

// New builds a Scanner over a copy of data; len(data) must be a power of
// two of at least 2.
func New(data []int32) (*Scanner, error) {
	n := len(data)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("scan: input length %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	// The vector is a pool lease, fully initialized from data below, so
	// its unspecified initial contents never surface.
	s := &Scanner{n: n, l: bits.TrailingZeros(uint(n)), v: mempool.Int64s.Get(n)}
	for i, x := range data {
		s.v[i] = int64(x)
	}
	return s, nil
}

// Release implements core.Releaser: it returns the sum vector to the pool.
// Idempotent; must not be called while the slice from Result is still in
// use.
func (s *Scanner) Release() {
	if s.v != nil {
		mempool.Int64s.Put(s.v)
		s.v = nil
	}
}

// Name implements core.Alg.
func (s *Scanner) Name() string { return "scan" }

// Arity implements core.Alg.
func (s *Scanner) Arity() int { return 2 }

// Shrink implements core.Alg.
func (s *Scanner) Shrink() int { return 2 }

// N implements core.Alg.
func (s *Scanner) N() int { return s.n }

// Levels implements core.Alg.
func (s *Scanner) Levels() int { return s.l }

// DivideBatch implements core.Alg: division is positional.
func (s *Scanner) DivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// BaseBatch implements core.Alg: one element is its own prefix sum.
func (s *Scanner) BaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// combineCost prices the offset propagation over sz/2 elements.
func combineCost(sz, tasks int, coalesced bool) core.Cost {
	half := float64(sz) / 2
	return core.Cost{
		Ops:        half,
		MemWords:   2 * half,
		Coalesced:  coalesced,
		Divergent:  false, // uniform loop: full latency hiding on the device
		WorkingSet: int64(tasks) * int64(sz) * 8,
	}
}

// CombineBatch implements core.Alg: task idx adds its left half's total into
// every element of its right half. A range body: near the leaves a task is
// one or two adds, less than a call per task would cost.
func (s *Scanner) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := s.n >> level
	b := core.Batch{Tasks: hi - lo, Cost: combineCost(sz, hi-lo, false)}
	if sz == 2 {
		// The widest level: n/2 pairs, each one add.
		b.RunRange = func(from, to int) {
			pairs := s.v[(lo+from)*2 : (lo+to)*2]
			for j := 1; j < len(pairs); j += 2 {
				pairs[j] += pairs[j-1]
			}
		}
		return b
	}
	b.RunRange = func(from, to int) {
		for off := (lo + from) * sz; off < (lo+to)*sz; off += sz {
			offset := s.v[off+sz/2-1]
			right := s.v[off+sz/2 : off+sz]
			for j := range right {
				right[j] += offset
			}
		}
	}
	return b
}

// Solve implements core.Solver: the combines of a subtree leave its local
// inclusive prefix sums, which one running sum computes in Θ(S) where the
// level walk takes Θ(S log S). One pass: it does not poll stop.
func (s *Scanner) Solve(level, idx int, _ <-chan struct{}) {
	sz := s.n >> level
	sub := s.v[idx*sz : (idx+1)*sz]
	var acc int64
	for i := range sub {
		acc += sub[i]
		sub[i] = acc
	}
}

// GPUBytes implements core.GPUAlg (8-byte partial sums).
func (s *Scanner) GPUBytes(level, lo, hi int) int64 {
	return int64(hi-lo) * int64(s.n>>level) * 8
}

// Finish implements core.Finisher.
func (s *Scanner) Finish() { s.finished = true }

// Result returns the inclusive prefix sums. Valid only after an executor
// completed.
func (s *Scanner) Result() []int64 {
	if !s.finished {
		panic("scan: Result before execution finished")
	}
	return s.v
}

// ModelF returns the model-level combine cost, size·1.5 ops (half the
// elements, each one op plus two words at weight 0.5) — the Θ(n^{log_b a})
// family.
func (s *Scanner) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 1.5 * size }
}

// ModelLeaf returns the model-level base-case cost.
func (s *Scanner) ModelLeaf() float64 { return 0 }

// Prefix is the sequential reference: the inclusive prefix sums of data.
func Prefix(data []int32) []int64 {
	out := make([]int64, len(data))
	var acc int64
	for i, v := range data {
		acc += int64(v)
		out[i] = acc
	}
	return out
}
