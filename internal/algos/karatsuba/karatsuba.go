// Package karatsuba implements Karatsuba polynomial multiplication as a
// breadth-first divide-and-conquer algorithm for the generic hybrid
// framework. Its recurrence T(n) = 3T(n/2) + Θ(n) exercises two framework
// paths the mergesort case study does not: a branching factor a ≠ b and a
// non-trivial divide phase (the third child's operands are sums of the
// halves, so real work happens on the way down the tree).
package karatsuba

import (
	"fmt"
	"math/bits"

	"repro/internal/core"

	"repro/internal/dcerr"
)

// Multiplier is a breadth-first Karatsuba instance computing the product of
// two polynomials with n coefficients each (n a power of two). It implements
// core.GPUAlg. Single-use.
//
// Its storage is one slab per level per role, and a node finds its part by
// offset arithmetic, so New allocates O(levels) objects and no per-node
// slice headers.
type Multiplier struct {
	n int
	l int
	// ops[l] holds the operands that level l owns: the root's pair at
	// level 0 and, at level l ≥ 1, the half-sums of child 2 of every node
	// of level l-1, which the divide batch fills. Slot s holds the pair's
	// a then its b, each n>>l long. Children 0 and 1 own nothing: they are
	// their parent's halves (see operands).
	ops [][]int64
	// prods[l] holds the 3^l products of level l, each 2·(n>>l)
	// coefficients long, node idx's at idx·2·(n>>l).
	prods    [][]int64
	finished bool
}

var _ core.GPUAlg = (*Multiplier)(nil)

// New builds a Multiplier over copies of the coefficient slices a and b,
// which must have the same power-of-two length >= 2.
func New(a, b []int32) (*Multiplier, error) {
	n := len(a)
	if len(b) != n {
		return nil, fmt.Errorf("karatsuba: operand lengths differ: %d vs %d: %w", n, len(b), dcerr.ErrBadShape)
	}
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("karatsuba: operand length %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	m := &Multiplier{n: n, l: bits.TrailingZeros(uint(n))}
	m.ops = make([][]int64, m.l+1)
	m.prods = make([][]int64, m.l+1)
	nodes := 1
	for lvl := 0; lvl <= m.l; lvl++ {
		sz := n >> lvl
		m.prods[lvl] = make([]int64, nodes*2*sz)
		if lvl > 0 {
			m.ops[lvl] = make([]int64, nodes/3*2*sz)
		}
		nodes *= 3
	}
	root := make([]int64, 2*n)
	for i := 0; i < n; i++ {
		root[i] = int64(a[i])
		root[n+i] = int64(b[i])
	}
	m.ops[0] = root
	return m, nil
}

// operands returns the operand pair of node idx of the level. A child 0
// or 1 is the low or high half of its parent's pair, so the walk climbs to
// the nearest ancestor that owns its storage — the root or a child 2 —
// adding each half's offset on the way.
func (m *Multiplier) operands(level, idx int) (a, b []int64) {
	sz := m.n >> level
	off := 0
	for level > 0 && idx%3 != 2 {
		off += idx % 3 * (m.n >> level)
		idx /= 3
		level--
	}
	own := m.n >> level
	slot := m.ops[level][idx/3*2*own:]
	return slot[off : off+sz : off+sz], slot[own+off : own+off+sz : own+off+sz]
}

// product returns node idx's product at the level: 2·sz coefficients cut
// from the level's slab p, where sz is the level's operand size.
func product(p []int64, idx, sz int) []int64 {
	return p[2*sz*idx : 2*sz*(idx+1) : 2*sz*(idx+1)]
}

// Name implements core.Alg.
func (m *Multiplier) Name() string { return "karatsuba" }

// Arity implements core.Alg: a = 3.
func (m *Multiplier) Arity() int { return 3 }

// Shrink implements core.Alg: b = 2.
func (m *Multiplier) Shrink() int { return 2 }

// N implements core.Alg.
func (m *Multiplier) N() int { return m.n }

// Levels implements core.Alg.
func (m *Multiplier) Levels() int { return m.l }

// divideCost is the per-node cost of splitting operands of size sz.
func divideCost(sz int, coalesced bool) core.Cost {
	return core.Cost{
		Ops:        float64(sz), // two half-sums of sz/2 adds each
		MemWords:   3 * float64(sz),
		Coalesced:  coalesced,
		Divergent:  false,
		WorkingSet: int64(sz) * 8 * 4,
	}
}

// DivideBatch implements core.Alg: node idx of the level splits its operand
// pair into the three Karatsuba subproblems at level+1.
func (m *Multiplier) DivideBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := m.n >> level
	half := sz / 2
	next := m.ops[level+1]
	return core.Batch{
		Tasks: hi - lo,
		Cost:  divideCost(sz, false),
		Run: func(i int) {
			idx := lo + i
			pa, pb := m.operands(level, idx)
			// Children 0 and 1 are pa's and pb's halves; child 2's pair
			// is slot idx of the next level.
			mid := next[idx*sz : (idx+1)*sz : (idx+1)*sz]
			for j := 0; j < half; j++ {
				mid[j] = pa[j] + pa[half+j]
				mid[half+j] = pb[j] + pb[half+j]
			}
		},
	}
}

// BaseBatch implements core.Alg: a leaf multiplies two constants.
func (m *Multiplier) BaseBatch(lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	leafProds := m.prods[m.l]
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: 1, MemWords: 3, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * 32,
		},
		Run: func(i int) {
			idx := lo + i
			a, b := m.operands(m.l, idx)
			leafProds[2*idx] = a[0] * b[0]
			leafProds[2*idx+1] = 0
		},
	}
}

// combineCost is the per-node cost of assembling a product of size 2·sz.
func combineCost(sz int, coalesced bool) core.Cost {
	return core.Cost{
		Ops:        4 * float64(sz),
		MemWords:   8 * float64(sz),
		Coalesced:  coalesced,
		Divergent:  false,
		WorkingSet: int64(sz) * 8 * 8,
	}
}

// CombineBatch implements core.Alg: node idx assembles its product from its
// three children: R = P0 + (P2 − P0 − P1)·x^half + P1·x^sz.
func (m *Multiplier) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	sz := m.n >> level
	half := sz / 2
	cur, child := m.prods[level], m.prods[level+1]
	return core.Batch{
		Tasks: hi - lo,
		Cost:  combineCost(sz, false),
		Run: func(i int) {
			idx := lo + i
			r := product(cur, idx, sz)
			p0, p1, p2 := product(child, 3*idx, half), product(child, 3*idx+1, half), product(child, 3*idx+2, half)
			for j := range r {
				r[j] = 0
			}
			for j := 0; j < 2*half; j++ {
				r[j] += p0[j]
				r[j+sz] += p1[j]
				r[j+half] += p2[j] - p0[j] - p1[j]
			}
		},
	}
}

// GPUBytes implements core.GPUAlg: operands down plus product back.
func (m *Multiplier) GPUBytes(level, lo, hi int) int64 {
	return int64(hi-lo) * int64(m.n>>level) * 8 * 4
}

// Finish implements core.Finisher.
func (m *Multiplier) Finish() { m.finished = true }

// Result returns the product's 2n coefficients (the top one is zero).
// Valid only after an executor completed.
func (m *Multiplier) Result() []int64 {
	if !m.finished {
		panic("karatsuba: Result before execution finished")
	}
	return m.prods[0]
}

// ModelF returns the model-level per-node divide+combine cost.
func (m *Multiplier) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 10 * size }
}

// ModelLeaf returns the model-level base-case cost.
func (m *Multiplier) ModelLeaf() float64 { return 2.5 }
