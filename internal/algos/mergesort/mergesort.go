// Package mergesort implements the paper's §6 case study: mergesort rewritten
// breadth-first (Algorithm 7), with sequential-merge kernels for the hybrid
// executors (Algorithm 8), the §6.3 memory-coalescing layout transformation,
// and the GPU-only parallel binary-search merge baseline of Fig 9.
//
// Cost convention (shared with internal/hpu's calibration): merging into a
// run of s elements costs Ops = s scalar operations and MemWords = 2s words
// (read s, write s). With the platforms' MemWeight of 0.5 this is 2s
// op-equivalents per merge task, so the model-level cost function is
// f(size) = 2·size with zero leaf cost.
package mergesort

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/mempool"

	"repro/internal/dcerr"
)

// Sorter is a breadth-first mergesort instance over a power-of-two input.
// It implements core.GPUAlg, core.DeviceKernels, core.Transformable and
// core.Solver. A Sorter is single-use: run it through exactly one executor,
// then read Result.
type Sorter struct {
	n int
	l int // log2 n
	// buf holds the ping-pong merge buffers. The combine at level lvl
	// (producing runs of size n>>lvl) is pass number l-lvl and reads from
	// buf[(l-lvl-1)%2], writing to buf[(l-lvl)%2]. The input starts in
	// buf[0].
	buf [2][]int32
	// inter tracks the §6.3 interleaved device layout, one entry per
	// active region (several devices may hold disjoint regions at once):
	// a region [base, base+count·runSize) of the current parity buffer
	// stores element j of run i at offset base + j·count + i.
	inter    []interRegion
	interMu  sync.Mutex
	finished bool
}

type interRegion struct {
	base    int // element offset of the region
	count   int // number of runs currently in the region
	runSize int // size of each run
}

var (
	_ core.GPUAlg        = (*Sorter)(nil)
	_ core.DeviceKernels = (*Sorter)(nil)
	_ core.Transformable = (*Sorter)(nil)
	_ core.Solver        = (*Sorter)(nil)
)

// New builds a Sorter over a copy of data. len(data) must be a power of two
// of at least 2.
func New(data []int32) (*Sorter, error) {
	n := len(data)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("mergesort: input length %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	s := &Sorter{n: n, l: bits.TrailingZeros(uint(n))}
	// Both parity buffers are pool leases. buf[1] starts with unspecified
	// contents, which is safe: every merge pass fully writes its
	// destination buffer across [0, n) before the next pass reads it, so
	// no stale element ever reaches the output. Release returns the
	// leases.
	s.buf[0] = mempool.Int32s.Get(n)
	s.buf[1] = mempool.Int32s.Get(n)
	copy(s.buf[0], data)
	return s, nil
}

// Release implements core.Releaser: it returns the parity buffers to the
// pool. Idempotent; must not be called while the slice from Result is still
// in use.
func (s *Sorter) Release() {
	for i := range s.buf {
		if s.buf[i] != nil {
			mempool.Int32s.Put(s.buf[i])
			s.buf[i] = nil
		}
	}
}

// Name implements core.Alg.
func (s *Sorter) Name() string { return "mergesort" }

// Arity implements core.Alg: a = 2.
func (s *Sorter) Arity() int { return 2 }

// Shrink implements core.Alg: b = 2.
func (s *Sorter) Shrink() int { return 2 }

// N implements core.Alg.
func (s *Sorter) N() int { return s.n }

// Levels implements core.Alg: log2 n internal levels.
func (s *Sorter) Levels() int { return s.l }

// src and dst return the parity buffers for the combine at a level.
func (s *Sorter) src(level int) []int32 { return s.buf[(s.l-level-1)%2] }
func (s *Sorter) dst(level int) []int32 { return s.buf[(s.l-level)%2] }

// runSize returns the output run size of the combine at a level.
func (s *Sorter) runSize(level int) int { return s.n >> level }

// DivideBatch implements core.Alg. Mergesort's division is positional: no
// data moves, so the batch is empty.
func (s *Sorter) DivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// BaseBatch implements core.Alg. Single elements are already sorted.
func (s *Sorter) BaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// mergeCost is the per-task cost of a sequential merge producing sz
// elements, with the given batch width for the working-set term.
func mergeCost(sz, tasks int, coalesced bool) core.Cost {
	return core.Cost{
		Ops:        float64(sz),
		MemWords:   2 * float64(sz),
		Coalesced:  coalesced,
		Divergent:  true,
		WorkingSet: int64(tasks) * int64(sz) * 8, // src + dst, 4 B each
	}
}

// CombineBatch implements core.Alg: task idx merges the two sorted halves of
// subproblem idx at the level (contiguous layout).
func (s *Sorter) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := s.runSize(level)
	src, dst := s.src(level), s.dst(level)
	var run func(i int)
	if sz == 2 {
		// The widest level: n/2 pairs, each one compare-exchange.
		run = func(i int) {
			off := (lo + i) * 2
			dst[off], dst[off+1] = ordered(src[off], src[off+1])
		}
	} else {
		run = func(i int) {
			off := (lo + i) * sz
			mergeRuns(dst[off:off+sz], src[off:off+sz/2], src[off+sz/2:off+sz])
		}
	}
	return core.Batch{
		Tasks: hi - lo,
		Cost:  mergeCost(sz, hi-lo, false),
		Run:   run,
	}
}

// Solve implements core.Solver: subtree idx of the level's merge passes,
// run directly in the walk's blocked order — in each block of B elements
// the passes that produce runs of 2..B, then the passes above B over the
// whole subtree, with B from core.BlockDepth of the subtree's working set
// (src + dst, 8 bytes per element, as mergeCost declares) — with the
// combine's kernels and parity buffers, so that both buffers end as the
// walk leaves them. It polls stop before every pass.
func (s *Sorter) Solve(level, idx int, stop <-chan struct{}) {
	sz, K := s.runSize(level), s.l-level
	d := core.BlockDepth(int64(sz)*8, 2, K)
	off, block := idx*sz, sz>>d
	for b := off; b < off+sz; b += block {
		if !s.passes(b, block, 1, K-d, stop) {
			return
		}
	}
	s.passes(off, sz, K-d+1, K, stop)
}

// passes runs merge passes from..to over the span elements at off, and
// reports whether stop stayed open. Pass p is the combine that produces
// runs of 2^p elements: it reads buf[(p−1)%2] and writes buf[p%2].
func (s *Sorter) passes(off, span, from, to int, stop <-chan struct{}) bool {
	for p := from; p <= to; p++ {
		if stop != nil {
			select {
			case <-stop:
				return false
			default:
			}
		}
		src, dst := s.buf[(p-1)%2][off:off+span], s.buf[p%2][off:off+span]
		if p == 1 {
			for i := 0; i+1 < len(dst); i += 2 {
				dst[i], dst[i+1] = ordered(src[i], src[i+1])
			}
			continue
		}
		r := 1 << p
		for i := 0; i < len(dst); i += r {
			mergeRuns(dst[i:i+r], src[i:i+r/2], src[i+r/2:i+r])
		}
	}
	return true
}

// GPUDivideBatch implements core.DeviceKernels.
func (s *Sorter) GPUDivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// GPUBaseBatch implements core.DeviceKernels.
func (s *Sorter) GPUBaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// GPUBytes implements core.GPUAlg: 4 bytes per element in the range.
func (s *Sorter) GPUBytes(level, lo, hi int) int64 {
	return int64(hi-lo) * int64(s.runSize(level)) * 4
}

// GPUCombineBatch implements core.DeviceKernels: one sequential merge per
// work-item (the divergent kernel of §6.1/6.2). If the region has been put
// into the interleaved device layout by PermuteForGPU, the merge reads and
// writes interleaved and is coalesced; otherwise adjacent work-items touch
// addresses a run apart and the access is strided.
//
// The executors construct GPU batches immediately before submitting them
// (state such as the interleave run count must be current), and submission
// executes the functional work eagerly; GPUCombineBatch therefore advances
// the interleave state itself.
func (s *Sorter) GPUCombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := s.runSize(level)
	src, dst := s.src(level), s.dst(level)
	base, count := lo*sz, 2*(hi-lo)
	if !s.mergeRegion(base, count, sz) {
		return s.CombineBatch(level, lo, hi)
	}
	// Interleaved merge: the region holds count runs of size sz/2 in src;
	// the batch merges them pairwise into count/2 runs of size sz in dst,
	// preserving the interleaved layout. The range body lets the kernel run
	// its work-items a wavefront at a time (DESIGN.md §3).
	runRange := func(from, to int) {
		mergeInterleaved(dst, src, base, count, sz/2, from, to)
	}
	if sz == 2 {
		// Unit runs: words 2t and 2t+1, ordered, become elements 0 and 1 of
		// output run t, count/2 words apart.
		runRange = func(from, to int) {
			for t := from; t < to; t++ {
				dst[base+t], dst[base+count/2+t] = ordered(src[base+2*t], src[base+2*t+1])
			}
		}
	}
	return core.Batch{
		Tasks:    hi - lo,
		Cost:     mergeCost(sz, hi-lo, true),
		RunRange: runRange,
	}
}

// mergeRegion advances the active interleaved region starting at element
// offset base from count runs of size sz/2 to count/2 runs of size sz, or
// reports false when there is no such region. Device chains of a multi-GPU
// run construct batches from different goroutines on the native backend, and
// one chain's removeRegion moves the other's entry within the slice, hence
// the lookup and the update under one lock.
func (s *Sorter) mergeRegion(base, count, sz int) bool {
	s.interMu.Lock()
	defer s.interMu.Unlock()
	for i := range s.inter {
		reg := &s.inter[i]
		if reg.base != base {
			continue
		}
		if reg.runSize != sz/2 || reg.count != count {
			panic(fmt.Sprintf("mergesort: interleaved region %+v does not hold %d runs of size %d", *reg, count, sz/2))
		}
		reg.count, reg.runSize = count/2, sz
		return true
	}
	return false
}

// addRegion registers a new interleaved region; overlap with an existing
// one indicates an executor bug.
func (s *Sorter) addRegion(r interRegion) {
	s.interMu.Lock()
	defer s.interMu.Unlock()
	end := r.base + r.count*r.runSize
	for _, x := range s.inter {
		xEnd := x.base + x.count*x.runSize
		if r.base < xEnd && x.base < end {
			panic(fmt.Sprintf("mergesort: interleaved regions overlap: %+v vs %+v", r, x))
		}
	}
	s.inter = append(s.inter, r)
}

// removeRegion deletes the region starting at base.
func (s *Sorter) removeRegion(base int) interRegion {
	s.interMu.Lock()
	defer s.interMu.Unlock()
	for i := range s.inter {
		if s.inter[i].base == base {
			r := s.inter[i]
			s.inter = append(s.inter[:i], s.inter[i+1:]...)
			return r
		}
	}
	panic(fmt.Sprintf("mergesort: no interleaved region at base %d", base))
}

// Finish implements core.Finisher: it leaves the fully sorted data in
// buf[0].
func (s *Sorter) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	// The final combine (level 0) wrote to buf[l%2].
	if s.l%2 == 1 {
		copy(s.buf[0], s.buf[1])
	}
}

// Result returns the sorted data. Valid only after an executor has run the
// Sorter to completion.
func (s *Sorter) Result() []int32 {
	if !s.finished {
		panic("mergesort: Result before execution finished")
	}
	return s.buf[0]
}

// ModelF returns the model-level combine cost function f(size) = 2·size, in
// the normalized op units shared with the platform calibration.
func (s *Sorter) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 2 * size }
}

// ModelLeaf returns the model-level base-case cost (none for mergesort).
func (s *Sorter) ModelLeaf() float64 { return 0 }
