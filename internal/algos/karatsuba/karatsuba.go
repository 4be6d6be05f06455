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

// opPair is one node's operands: two polynomials of equal length given by
// their coefficient slices.
type opPair struct {
	a, b []int64
}

// Multiplier is a breadth-first Karatsuba instance computing the product of
// two polynomials with n coefficients each (n a power of two). It implements
// core.GPUAlg. Single-use.
type Multiplier struct {
	n int
	l int
	// ops[l] holds the 3^l operand pairs of level l, each of size n>>l.
	// Children 0 and 1 alias their parent's halves; child 2 owns storage
	// for the half-sums, filled by the divide batch.
	ops [][]opPair
	// prods[l] holds the 3^l products of level l, each of size 2·(n>>l).
	prods    [][][]int64
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
	m.ops = make([][]opPair, m.l+1)
	m.prods = make([][][]int64, m.l+1)
	nodes := 1
	for lvl := 0; lvl <= m.l; lvl++ {
		m.ops[lvl] = make([]opPair, nodes)
		m.prods[lvl] = make([][]int64, nodes)
		sz := n >> lvl
		for idx := range m.prods[lvl] {
			m.prods[lvl][idx] = make([]int64, 2*sz)
			// Child 2 of every node needs its own operand storage; other
			// children alias parent halves during the divide phase.
			if lvl > 0 && idx%3 == 2 {
				m.ops[lvl][idx] = opPair{make([]int64, sz), make([]int64, sz)}
			}
		}
		nodes *= 3
	}
	root := opPair{make([]int64, n), make([]int64, n)}
	for i := 0; i < n; i++ {
		root.a[i] = int64(a[i])
		root.b[i] = int64(b[i])
	}
	m.ops[0][0] = root
	return m, nil
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
	cur, next := m.ops[level], m.ops[level+1]
	return core.Batch{
		Tasks: hi - lo,
		Cost:  divideCost(sz, false),
		Run: func(i int) {
			idx := lo + i
			p := cur[idx]
			next[3*idx] = opPair{p.a[:half], p.b[:half]}
			next[3*idx+1] = opPair{p.a[half:], p.b[half:]}
			mid := next[3*idx+2]
			for j := 0; j < half; j++ {
				mid.a[j] = p.a[j] + p.a[half+j]
				mid.b[j] = p.b[j] + p.b[half+j]
			}
		},
	}
}

// BaseBatch implements core.Alg: a leaf multiplies two constants.
func (m *Multiplier) BaseBatch(lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	leafOps, leafProds := m.ops[m.l], m.prods[m.l]
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: 1, MemWords: 3, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * 32,
		},
		Run: func(i int) {
			idx := lo + i
			leafProds[idx][0] = leafOps[idx].a[0] * leafOps[idx].b[0]
			leafProds[idx][1] = 0
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
			r := cur[idx]
			p0, p1, p2 := child[3*idx], child[3*idx+1], child[3*idx+2]
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
	return m.prods[0][0]
}

// ModelF returns the model-level per-node divide+combine cost.
func (m *Multiplier) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 10 * size }
}

// ModelLeaf returns the model-level base-case cost.
func (m *Multiplier) ModelLeaf() float64 { return 2.5 }
