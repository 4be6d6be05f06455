package mergesort

import (
	"fmt"

	"repro/internal/core"
)

// PermuteForGPU implements core.Transformable (§6.3): it switches the region
// holding subproblems [lo, hi) of the given level into the interleaved
// device layout, in which the j-th elements of all runs are contiguous so
// that work-items merging adjacent runs issue coalesced accesses.
//
// The hybrid executors invoke this at the leaf level, where runs have size 1
// and the interleaved layout coincides with the contiguous one — the switch
// is then free, and coalescing is maintained structurally by the interleaved
// merges as runs grow. (Called at a coarser level, the permutation really
// moves data and is costed accordingly.)
func (s *Sorter) PermuteForGPU(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	rsz := s.runSize(level)
	s.addRegion(interRegion{base: lo * rsz, count: hi - lo, runSize: rsz})
	if rsz == 1 {
		return core.Batch{} // identity layout change
	}
	// General case: physically interleave `count` contiguous runs. The
	// data currently lives in the buffer the next combine will read, i.e.
	// src(level-1).
	cur := s.src(level - 1)
	return s.permutationBatch(cur, lo*rsz, hi-lo, rsz, true)
}

// PermuteBack implements core.Transformable: it restores the contiguous
// layout of subproblems [lo, hi) at the given level (the transfer level y)
// before results return to the CPU.
func (s *Sorter) PermuteBack(level, lo, hi int) core.Batch {
	rsz := s.runSize(level)
	reg := s.removeRegion(lo * rsz)
	if reg.count != hi-lo || reg.runSize != rsz {
		panic(fmt.Sprintf("mergesort: PermuteBack(%d,[%d,%d)) does not match interleaved state (count=%d runSize=%d)",
			level, lo, hi, reg.count, reg.runSize))
	}
	if reg.count == 1 || rsz == 1 {
		return core.Batch{} // interleaving a single run (or unit runs) is the identity
	}
	// The last combine at `level` wrote to dst(level); de-interleave there.
	cur := s.dst(level)
	return s.permutationBatch(cur, lo*rsz, hi-lo, rsz, false)
}

// permutationBatch builds the batch that (de)interleaves count runs of
// runSize elements at element offset base within cur, using the idle parity
// buffer as scratch. Its body is the one exception to Batch.RunRange's
// "tasks lo..hi−1": the whole data movement happens in the range holding
// task 0, whatever its hi, and every other range returns at once. The two
// passes over the region (transpose into scratch, copy back) cannot be cut
// into ranges that run concurrently, since the copy back overwrites what
// other ranges' transposes still read; the union over any partition is
// still the whole batch. Tasks reflects the element count so the device
// cost model charges one uniform work-item per element.
func (s *Sorter) permutationBatch(cur []int32, base, count, runSize int, toInterleaved bool) core.Batch {
	m := count * runSize
	scratch := s.buf[0]
	if &scratch[0] == &cur[0] {
		scratch = s.buf[1]
	}
	from, to := cur[base:base+m], scratch[base:base+m]
	rows, cols := count, runSize // the contiguous layout: one row per run
	if !toInterleaved {
		rows, cols = runSize, count // the interleaved layout: one row per element index
	}
	return core.Batch{
		Tasks: m,
		Cost: core.Cost{
			Ops:        1,
			MemWords:   4, // read+write into scratch, read+write back
			Coalesced:  true,
			Divergent:  false,
			WorkingSet: int64(m) * 8,
		},
		RunRange: func(lo, hi int) {
			if lo != 0 {
				return // the range holding task 0 moves the whole region
			}
			transpose(to, from, rows, cols)
			copy(from, to)
		},
	}
}

// transposeBlock is how many columns transpose moves per walk down the
// rows: 8 adjacent words read per row, 8 sequential write streams. The
// streams sit rows words apart, usually a power of two, so their current
// lines share one L1 set: 16 streams exceed the 12 ways of the benchmark
// host's L1d and measured no faster than the strided walk, 8 do not.
const transposeBlock = 8

// transpose writes the rows×cols matrix src (row-major) to dst as its
// cols×rows transpose, a block of columns at a time, so that neither side
// is walked one strided word per cache line.
func transpose(dst, src []int32, rows, cols int) {
	for c0 := 0; c0 < cols; c0 += transposeBlock {
		c1 := min(c0+transposeBlock, cols)
		for r := 0; r < rows; r++ {
			for c, v := range src[r*cols+c0 : r*cols+c1] {
				dst[(c0+c)*rows+r] = v
			}
		}
	}
}
