package mergesort

import (
	"math/bits"
	"sort"

	"repro/internal/core"
)

// ParallelSorter is the GPU-only baseline of Fig 9: merging two runs is
// itself parallelized by assigning one work-item per element, which finds
// its output position with a binary search in the sibling run. The kernel
// is uniform (every work-item at a level executes the same number of search
// steps), so it benefits from the device's full saturated throughput —
// unlike the divergent one-merge-per-thread kernel of the hybrid strategy.
//
// ParallelSorter intentionally does not use the §6.3 interleaved layout: its
// accesses are data-dependent (gather), which the cost model captures with
// Coalesced=false.
type ParallelSorter struct {
	*Sorter
}

var (
	_ core.GPUAlg        = (*ParallelSorter)(nil)
	_ core.DeviceKernels = (*ParallelSorter)(nil)
)

// NewParallel builds a parallel-merge GPU sorter over a copy of data.
func NewParallel(data []int32) (*ParallelSorter, error) {
	s, err := New(data)
	if err != nil {
		return nil, err
	}
	return &ParallelSorter{Sorter: s}, nil
}

// Name implements core.Alg.
func (s *ParallelSorter) Name() string { return "mergesort-parallel-gpu" }

// GPUCombineBatch implements core.DeviceKernels with one work-item per
// element of the range: element e of output run t determines its rank in
// the merged run by binary search. Its divide and base kernels are the
// embedded Sorter's.
func (s *ParallelSorter) GPUCombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := s.runSize(level)
	half := sz / 2
	src, dst := s.src(level), s.dst(level)
	searchSteps := float64(bits.Len(uint(half)) + 1)
	return core.Batch{
		Tasks: (hi - lo) * sz,
		Cost: core.Cost{
			Ops:        searchSteps + 2,
			MemWords:   searchSteps + 2,
			Coalesced:  false, // gather pattern
			Divergent:  false, // uniform loop bound per level
			WorkingSet: int64(hi-lo) * int64(sz) * 8,
		},
		Run: func(i int) {
			e := lo*sz + i
			off := (e / sz) * sz // start of this element's output run
			q := e - off         // position within the pair of input runs
			a := src[off : off+half]
			b := src[off+half : off+sz]
			var rank int
			var v int32
			if q < half {
				// Element from run a: equal keys from a come first.
				v = a[q]
				rank = q + sort.Search(len(b), func(j int) bool { return b[j] >= v })
			} else {
				v = b[q-half]
				rank = q - half + sort.Search(len(a), func(j int) bool { return a[j] > v })
			}
			dst[off+rank] = v
		},
	}
}

// PermuteForGPU overrides the embedded Sorter's transformation: the parallel
// kernel keeps the contiguous layout.
func (s *ParallelSorter) PermuteForGPU(level, lo, hi int) core.Batch { return core.Batch{} }

// PermuteBack overrides the embedded Sorter's transformation.
func (s *ParallelSorter) PermuteBack(level, lo, hi int) core.Batch { return core.Batch{} }
