// Package dcsum implements the paper's §4.3 running example: a
// divide-and-conquer sum of an array (Algorithms 4 and 5). It exists to
// demonstrate the generic translation on the simplest possible recurrence,
// T(n) = 2T(n/2) + Θ(1).
//
// The CPU combine follows Algorithm 4's layout: the partial sum of the
// subproblem over [idx·sz, (idx+1)·sz) is held at its first element, so a
// combine adds the right half's sum into the left's. The GPU combine, after
// the (free, leaf-level) layout switch of PermuteForGPU, follows
// Algorithm 5: the k partial sums of a region live compacted at its first k
// slots and work-item id executes sums[id] += sums[id+k/2] — a fully
// coalesced access pattern. Because addition is commutative and associative,
// the device pairing need not match the recursion tree's sibling structure.
package dcsum

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mempool"

	"repro/internal/dcerr"
)

// Summer is a breadth-first divide-and-conquer sum over a power-of-two
// input. It implements core.GPUAlg, core.DeviceKernels, core.Transformable
// and core.Solver. Partial sums are held as int64 to avoid overflow.
// Single-use, like mergesort.Sorter.
type Summer struct {
	n int
	l int
	v []int64
	// compact, when active, marks the region [base, base+count) of v as
	// holding that region's partial sums contiguously (Algorithm 5 layout).
	compact struct {
		active bool
		base   int
		count  int
	}
	finished bool
}

var (
	_ core.GPUAlg        = (*Summer)(nil)
	_ core.DeviceKernels = (*Summer)(nil)
	_ core.Transformable = (*Summer)(nil)
	_ core.Solver        = (*Summer)(nil)
)

// New builds a Summer over a copy of data; len(data) must be a power of two
// of at least 2.
func New(data []int32) (*Summer, error) {
	n := len(data)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dcsum: input length %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	// The partial-sum vector is a pool lease, fully initialized from data
	// below, so its unspecified initial contents never surface.
	s := &Summer{n: n, l: bits.TrailingZeros(uint(n)), v: mempool.Int64s.Get(n)}
	for i, x := range data {
		s.v[i] = int64(x)
	}
	return s, nil
}

// Release implements core.Releaser: it returns the sum vector to the pool.
// Idempotent; must not be called after Release while Result's value is
// still needed (Result copies nothing — it reads v[0]).
func (s *Summer) Release() {
	if s.v != nil {
		mempool.Int64s.Put(s.v)
		s.v = nil
	}
}

// Name implements core.Alg.
func (s *Summer) Name() string { return "dcsum" }

// Arity implements core.Alg.
func (s *Summer) Arity() int { return 2 }

// Shrink implements core.Alg.
func (s *Summer) Shrink() int { return 2 }

// N implements core.Alg.
func (s *Summer) N() int { return s.n }

// Levels implements core.Alg.
func (s *Summer) Levels() int { return s.l }

// DivideBatch implements core.Alg: division is positional.
func (s *Summer) DivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// BaseBatch implements core.Alg: a single element is its own sum.
func (s *Summer) BaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// combineCost is the per-task cost of one pairwise add.
func combineCost(span int64, coalesced bool) core.Cost {
	return core.Cost{
		Ops:        1,
		MemWords:   3,
		Coalesced:  coalesced,
		Divergent:  false,
		WorkingSet: span,
	}
}

// CombineBatch implements core.Alg (Algorithm 4's layout): task idx adds the
// right child's sum into the left child's slot.
func (s *Summer) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := s.n >> level
	return core.Batch{
		Tasks: hi - lo,
		Cost:  combineCost(int64(hi-lo)*int64(sz)*8, false),
		RunRange: func(from, to int) {
			v := s.v[(lo+from)*sz : (lo+to)*sz]
			for off := 0; off < len(v); off += sz {
				v[off] += v[off+sz/2]
			}
		},
	}
}

// Solve implements core.Solver: the combines of subtree idx of the level
// leave in each slot r of it (relative to the subtree) the sum of the
// lowbit(r) elements from r, and at slot 0 the subtree's sum. One backward
// pass does it: a slot has all of its sum when the pass reaches it, since
// every slot that adds into it lies to its right. One pass: it does not
// poll stop.
func (s *Summer) Solve(level, idx int, _ <-chan struct{}) {
	sz := s.n >> level
	v := s.v[idx*sz : (idx+1)*sz]
	for r := len(v) - 1; r > 0; r-- {
		v[r-(r&-r)] += v[r]
	}
}

// GPUDivideBatch implements core.DeviceKernels.
func (s *Summer) GPUDivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// GPUBaseBatch implements core.DeviceKernels.
func (s *Summer) GPUBaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// GPUBytes implements core.GPUAlg (8-byte partial sums).
func (s *Summer) GPUBytes(level, lo, hi int) int64 {
	return int64(hi-lo) * int64(s.n>>level) * 8
}

// GPUCombineBatch implements core.DeviceKernels. In the compact region
// layout this is exactly Algorithm 5: sums[id] += sums[id + numSubProblems].
func (s *Summer) GPUCombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	if !s.compact.active {
		return s.CombineBatch(level, lo, hi)
	}
	k := hi - lo // number of sums after this combine
	if s.compact.count != 2*k {
		panic(fmt.Sprintf("dcsum: compact count %d does not match range [%d,%d)",
			s.compact.count, lo, hi))
	}
	base := s.compact.base
	s.compact.count = k
	return core.Batch{
		Tasks: k,
		Cost:  combineCost(int64(2*k)*8, true),
		RunRange: func(from, to int) {
			left, right := s.v[base+from:base+to], s.v[base+k+from:base+k+to]
			for id := range left {
				left[id] += right[id]
			}
		},
	}
}

// PermuteForGPU implements core.Transformable. At the leaf level every
// element is its own partial sum, so the compact layout coincides with the
// natural one and the switch is free — the situation the §4.3 GPU kernel
// exploits.
func (s *Summer) PermuteForGPU(level, lo, hi int) core.Batch {
	if s.compact.active {
		panic("dcsum: PermuteForGPU while a region is already compact")
	}
	sz := s.n >> level
	if sz != 1 {
		panic("dcsum: PermuteForGPU is only supported at the leaf level")
	}
	s.compact.active = true
	s.compact.base = lo
	s.compact.count = hi - lo
	return core.Batch{}
}

// PermuteBack implements core.Transformable: it scatters the region's k
// compacted sums back to the Algorithm 4 positions idx·sz, so the CPU can
// continue combining above the transfer level.
func (s *Summer) PermuteBack(level, lo, hi int) core.Batch {
	if !s.compact.active {
		panic("dcsum: PermuteBack without a compact region")
	}
	k := hi - lo
	if s.compact.count != k {
		panic(fmt.Sprintf("dcsum: PermuteBack count %d does not match range [%d,%d)",
			s.compact.count, lo, hi))
	}
	base := s.compact.base
	s.compact.active = false
	sz := s.n >> level
	if sz == 1 {
		return core.Batch{} // layouts coincide
	}
	return core.Batch{
		Tasks: k,
		Cost: core.Cost{
			Ops:        1,
			MemWords:   2,
			Coalesced:  true,
			Divergent:  false,
			WorkingSet: int64(k) * int64(sz) * 8,
		},
		// The range holding task 0 moves every sum; Tasks counts them for
		// the cost model.
		RunRange: func(lo, hi int) {
			if lo != 0 {
				return
			}
			// Descending order: the target idx·sz of sum idx never
			// overwrites a smaller, not-yet-moved source slot.
			for idx := k - 1; idx >= 1; idx-- {
				s.v[base+idx*sz] = s.v[base+idx]
				s.v[base+idx] = 0
			}
		},
	}
}

// Finish implements core.Finisher.
func (s *Summer) Finish() { s.finished = true }

// Result returns the total sum. Valid only after an executor completed.
func (s *Summer) Result() int64 {
	if !s.finished {
		panic("dcsum: Result before execution finished")
	}
	return s.v[0]
}

// ModelF returns the model-level combine cost: constant per subproblem
// (T(n) = 2T(n/2) + Θ(1)).
func (s *Summer) ModelF() func(float64) float64 {
	return func(float64) float64 { return 2.5 }
}

// ModelLeaf returns the model-level base-case cost.
func (s *Summer) ModelLeaf() float64 { return 0 }

// Sum is the sequential reference (Algorithm 4 run to completion).
func Sum(data []int32) int64 {
	var t int64
	for _, v := range data {
		t += int64(v)
	}
	return t
}
