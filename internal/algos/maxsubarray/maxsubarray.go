// Package maxsubarray solves the maximum (non-empty) subarray sum problem
// with the classic divide-and-conquer recurrence T(n) = 2T(n/2) + Θ(1),
// rewritten breadth-first for the generic hybrid framework. Each recursion
// node carries the (total, best prefix, best suffix, best) quadruple, so a
// combine is a constant-size fold — an algorithm whose per-task work is
// uniform, making its level batches a natural fit for the GPU.
package maxsubarray

import (
	"fmt"
	"math/bits"

	"repro/internal/core"

	"repro/internal/dcerr"
)

// node summarizes one subproblem.
type node struct {
	total  int64 // sum of the whole range
	prefix int64 // best sum of a non-empty prefix
	suffix int64 // best sum of a non-empty suffix
	best   int64 // best sum of any non-empty subarray
}

// combine folds two adjacent children into their parent.
func combine(l, r node) node {
	return node{
		total:  l.total + r.total,
		prefix: max64(l.prefix, l.total+r.prefix),
		suffix: max64(r.suffix, r.total+l.suffix),
		best:   max64(max64(l.best, r.best), l.suffix+r.prefix),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Solver is a breadth-first maximum-subarray instance over a power-of-two
// input. It implements core.GPUAlg. Nodes are stored in place at positions
// idx·(n>>level), so combines never conflict. Single-use.
type Solver struct {
	n        int
	l        int
	data     []int32
	nodes    []node
	finished bool
}

var _ core.GPUAlg = (*Solver)(nil)

// New builds a Solver over a copy of data; len(data) must be a power of two
// of at least 2.
func New(data []int32) (*Solver, error) {
	n := len(data)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("maxsubarray: input length %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	return &Solver{
		n:     n,
		l:     bits.TrailingZeros(uint(n)),
		data:  append([]int32(nil), data...),
		nodes: make([]node, n),
	}, nil
}

// Name implements core.Alg.
func (s *Solver) Name() string { return "maxsubarray" }

// Arity implements core.Alg.
func (s *Solver) Arity() int { return 2 }

// Shrink implements core.Alg.
func (s *Solver) Shrink() int { return 2 }

// N implements core.Alg.
func (s *Solver) N() int { return s.n }

// Levels implements core.Alg.
func (s *Solver) Levels() int { return s.l }

// DivideBatch implements core.Alg: division is positional.
func (s *Solver) DivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// baseCost is the per-leaf initialization cost.
func baseCost(tasks int, coalesced bool) core.Cost {
	return core.Cost{
		Ops:        4,
		MemWords:   5,
		Coalesced:  coalesced,
		Divergent:  false,
		WorkingSet: int64(tasks) * 36, // one int32 read, one node written
	}
}

// BaseBatch implements core.Alg: leaf i becomes the quadruple of element i.
func (s *Solver) BaseBatch(lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	return core.Batch{
		Tasks: hi - lo,
		Cost:  baseCost(hi-lo, true),
		Run: func(i int) {
			v := int64(s.data[lo+i])
			s.nodes[lo+i] = node{total: v, prefix: v, suffix: v, best: v}
		},
	}
}

// combineCost is the per-task fold cost.
func combineCost(tasks, sz int, coalesced bool) core.Cost {
	return core.Cost{
		Ops:        10,
		MemWords:   12,
		Coalesced:  coalesced,
		Divergent:  false,
		WorkingSet: int64(tasks) * int64(sz) * 32 / 2,
	}
}

// CombineBatch implements core.Alg: task idx folds its two children, stored
// at idx·sz and idx·sz + sz/2, into idx·sz.
func (s *Solver) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := s.n >> level
	return core.Batch{
		Tasks: hi - lo,
		Cost:  combineCost(hi-lo, sz, false),
		Run: func(i int) {
			off := (lo + i) * sz
			s.nodes[off] = combine(s.nodes[off], s.nodes[off+sz/2])
		},
	}
}

// GPUBytes implements core.GPUAlg: the element data plus the node slots of
// the range.
func (s *Solver) GPUBytes(level, lo, hi int) int64 {
	return int64(hi-lo) * int64(s.n>>level) * (4 + 32)
}

// Finish implements core.Finisher.
func (s *Solver) Finish() { s.finished = true }

// Result returns the maximum non-empty subarray sum. Valid only after an
// executor completed.
func (s *Solver) Result() int64 {
	if !s.finished {
		panic("maxsubarray: Result before execution finished")
	}
	return s.nodes[0].best
}

// ModelF returns the model-level combine cost: constant per subproblem.
func (s *Solver) ModelF() func(float64) float64 {
	return func(float64) float64 { return 16 }
}

// ModelLeaf returns the model-level base-case cost.
func (s *Solver) ModelLeaf() float64 { return 6.5 }
