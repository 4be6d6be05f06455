package mergesort

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mempool"

	"repro/internal/dcerr"
)

// AnySorter is the footnote-4 generalization of Sorter to arbitrary input
// lengths: the recursion tree is the one of the next power of two, but runs
// are clamped to the real data, so the trailing subproblems are short or
// empty (an empty right half degenerates the merge into a copy between the
// parity buffers). It implements core.GPUAlg; the §6.3 interleaved layout is
// not supported for ragged runs, so AnySorter is not Transformable and the
// Coalesce option is a no-op.
type AnySorter struct {
	n        int // actual input length
	l        int // ceil(log2 n)
	buf      [2][]int32
	finished bool
}

var _ core.GPUAlg = (*AnySorter)(nil)

// NewAny builds an AnySorter over a copy of data; any length >= 2 works.
func NewAny(data []int32) (*AnySorter, error) {
	n := len(data)
	if n < 2 {
		return nil, fmt.Errorf("mergesort: input length %d too short: %w", n, dcerr.ErrBadShape)
	}
	l := bits.Len(uint(n - 1)) // ceil(log2 n)
	s := &AnySorter{n: n, l: l}
	// Pool leases, like Sorter: every pass fully writes its destination
	// parity buffer over [0, n) (ragged trailing runs degenerate to
	// copies), so buf[1]'s unspecified initial contents never surface.
	s.buf[0] = mempool.Int32s.Get(n)
	s.buf[1] = mempool.Int32s.Get(n)
	copy(s.buf[0], data)
	return s, nil
}

// Release implements core.Releaser: it returns the parity buffers to the
// pool. Idempotent; must not be called while the slice from Result is still
// in use.
func (s *AnySorter) Release() {
	for i := range s.buf {
		if s.buf[i] != nil {
			mempool.Int32s.Put(s.buf[i])
			s.buf[i] = nil
		}
	}
}

// Name implements core.Alg.
func (s *AnySorter) Name() string { return "mergesort-any" }

// Arity implements core.Alg.
func (s *AnySorter) Arity() int { return 2 }

// Shrink implements core.Alg.
func (s *AnySorter) Shrink() int { return 2 }

// N implements core.Alg: the actual input length.
func (s *AnySorter) N() int { return s.n }

// Levels implements core.Alg: the padded tree depth ⌈log2 n⌉.
func (s *AnySorter) Levels() int { return s.l }

func (s *AnySorter) src(level int) []int32 { return s.buf[(s.l-level-1)%2] }
func (s *AnySorter) dst(level int) []int32 { return s.buf[(s.l-level)%2] }

// DivideBatch implements core.Alg.
func (s *AnySorter) DivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// BaseBatch implements core.Alg.
func (s *AnySorter) BaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// clamp returns the data boundaries of virtual subproblem idx at a level:
// its start, midpoint and end within [0, n].
func (s *AnySorter) clamp(level, idx int) (off, mid, end int) {
	sz := 1 << (s.l - level) // virtual run size
	off = idx * sz
	if off > s.n {
		off = s.n
	}
	mid = off + sz/2
	if mid > s.n {
		mid = s.n
	}
	end = off + sz
	if end > s.n {
		end = s.n
	}
	return off, mid, end
}

// CombineBatch implements core.Alg: virtual task idx merges its clamped
// halves; a task past the data end is a no-op, and an empty right half
// degenerates to a copy (the parity buffers still have to swap).
func (s *AnySorter) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	// Per-task cost uses the average real elements per virtual task so the
	// level's total cost stays exact.
	tasks := hi - lo
	virtual := 1 << level
	avg := float64(s.n) / float64(virtual)
	src, dst := s.src(level), s.dst(level)
	return core.Batch{
		Tasks: tasks,
		Cost: core.Cost{
			Ops:        avg,
			MemWords:   2 * avg,
			Coalesced:  false,
			Divergent:  true,
			WorkingSet: int64(float64(tasks) * avg * 8),
		},
		// Ragged tasks near the data end are cheaper (or free); the exact
		// per-task cost lets the simulated GPU price SIMD divergence.
		CostOps: func(i int) float64 {
			off, _, end := s.clamp(level, lo+i)
			return float64(end - off)
		},
		Run: func(i int) {
			off, mid, end := s.clamp(level, lo+i)
			if off >= end {
				return
			}
			mergeRuns(dst[off:end], src[off:mid], src[mid:end])
		},
	}
}

// GPUBytes implements core.GPUAlg: only real data crosses the link.
func (s *AnySorter) GPUBytes(level, lo, hi int) int64 {
	loOff, _, _ := s.clamp(level, lo)
	hiOff, _, _ := s.clamp(level, hi)
	return int64(hiOff-loOff) * 4
}

// Finish implements core.Finisher.
func (s *AnySorter) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	if s.l%2 == 1 {
		copy(s.buf[0], s.buf[1])
	}
}

// Result returns the sorted data.
func (s *AnySorter) Result() []int32 {
	if !s.finished {
		panic("mergesort: Result before execution finished")
	}
	return s.buf[0]
}

// ModelF returns the model-level combine cost function.
func (s *AnySorter) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 2 * size }
}

// ModelLeaf returns the model-level base-case cost.
func (s *AnySorter) ModelLeaf() float64 { return 0 }
