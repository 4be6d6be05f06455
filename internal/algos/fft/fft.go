// Package fft implements the Cooley-Tukey fast Fourier transform as a
// breadth-first divide-and-conquer algorithm (T(n) = 2T(n/2) + Θ(n)) for the
// generic hybrid framework. Unlike mergesort, its divide phase does real
// work: each node splits its segment into even- and odd-indexed halves on
// the way down; the combine phase applies the butterfly pass on the way up.
// The per-level cost shape is the same Θ(n^{log_b a}) family as mergesort,
// so the closed-form §5.2.2 model applies directly.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/core"

	"repro/internal/dcerr"
)

// Transform is a breadth-first FFT instance over a power-of-two-length
// complex input. It implements core.GPUAlg. Single-use.
type Transform struct {
	n int
	l int
	// v holds the working data; scratch is shared by divide tasks, which
	// operate on disjoint segments.
	v        []complex128
	scratch  []complex128
	inverse  bool
	finished bool
}

var _ core.GPUAlg = (*Transform)(nil)

// New builds a forward transform over a copy of data; len(data) must be a
// power of two of at least 2.
func New(data []complex128) (*Transform, error) { return newT(data, false) }

// NewInverse builds an inverse transform (up to the 1/n scale, applied in
// Finish).
func NewInverse(data []complex128) (*Transform, error) { return newT(data, true) }

func newT(data []complex128, inverse bool) (*Transform, error) {
	n := len(data)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: input length %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	t := &Transform{
		n: n, l: bits.TrailingZeros(uint(n)),
		v:       append([]complex128(nil), data...),
		scratch: make([]complex128, n),
		inverse: inverse,
	}
	return t, nil
}

// Name implements core.Alg.
func (t *Transform) Name() string { return "fft" }

// Arity implements core.Alg.
func (t *Transform) Arity() int { return 2 }

// Shrink implements core.Alg.
func (t *Transform) Shrink() int { return 2 }

// N implements core.Alg.
func (t *Transform) N() int { return t.n }

// Levels implements core.Alg.
func (t *Transform) Levels() int { return t.l }

// DivideBatch implements core.Alg: node idx of the level partitions its
// segment into even-indexed then odd-indexed elements (the Cooley-Tukey
// decimation in time).
func (t *Transform) DivideBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := t.n >> level
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: float64(sz), MemWords: 4 * float64(sz),
			Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(sz) * 32,
		},
		Run: func(i int) {
			off := (lo + i) * sz
			half := sz / 2
			seg := t.v[off : off+sz]
			tmp := t.scratch[off : off+sz]
			for j := 0; j < half; j++ {
				tmp[j] = seg[2*j]
				tmp[half+j] = seg[2*j+1]
			}
			copy(seg, tmp)
		},
	}
}

// BaseBatch implements core.Alg: a single sample is its own DFT.
func (t *Transform) BaseBatch(lo, hi int) core.Batch { return core.Batch{} }

// CombineBatch implements core.Alg: node idx applies the butterfly pass that
// merges the DFTs of its two halves.
func (t *Transform) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := t.n >> level
	sign := -2 * math.Pi
	if t.inverse {
		sign = 2 * math.Pi
	}
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: 6 * float64(sz), MemWords: 4 * float64(sz),
			Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(sz) * 32,
		},
		Run: func(i int) {
			off := (lo + i) * sz
			half := sz / 2
			seg := t.v[off : off+sz]
			for j := 0; j < half; j++ {
				w := cmplx.Exp(complex(0, sign*float64(j)/float64(sz)))
				e, o := seg[j], w*seg[half+j]
				seg[j] = e + o
				seg[half+j] = e - o
			}
		},
	}
}

// GPUBytes implements core.GPUAlg: 16 bytes per complex sample each way.
func (t *Transform) GPUBytes(level, lo, hi int) int64 {
	return int64(hi-lo) * int64(t.n>>level) * 16
}

// Finish implements core.Finisher: inverse transforms are scaled by 1/n.
func (t *Transform) Finish() {
	if t.finished {
		return
	}
	t.finished = true
	if t.inverse {
		s := complex(1/float64(t.n), 0)
		for i := range t.v {
			t.v[i] *= s
		}
	}
}

// Result returns the transformed samples. Valid only after an executor
// completed.
func (t *Transform) Result() []complex128 {
	if !t.finished {
		panic("fft: Result before execution finished")
	}
	return t.v
}

// ModelF returns the model-level per-node divide+combine cost, 9·size ops
// (in the same Θ(n^{log_b a}) family as mergesort, so PolyModel applies).
func (t *Transform) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 9 * size }
}

// ModelLeaf returns the model-level base-case cost.
func (t *Transform) ModelLeaf() float64 { return 0 }
