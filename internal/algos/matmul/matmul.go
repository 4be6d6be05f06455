// Package matmul implements divide-and-conquer dense matrix multiplication
// (T(n) = 8T(n/2) + Θ(n²)) for the generic hybrid framework. Unlike the
// other case studies it truncates the recursion at a configurable depth and
// multiplies the leaf blocks directly — the paper's §7 suggestion of
// switching to non-recursive kernels at the lowest levels — which keeps the
// breadth-first expansion's memory footprint (8^l blocks at level l)
// bounded.
package matmul

import (
	"fmt"

	"repro/internal/core"

	"repro/internal/dcerr"
)

// block is a square row-major matrix.
type block struct {
	dim int
	v   []float64
}

func newBlock(dim int) block { return block{dim: dim, v: make([]float64, dim*dim)} }

func (b block) at(r, c int) float64     { return b.v[r*b.dim+c] }
func (b block) set(r, c int, x float64) { b.v[r*b.dim+c] = x }

// quadrant copies quadrant (qr, qc) ∈ {0,1}² of src into dst (dim src/2).
func quadrant(dst, src block, qr, qc int) {
	h := src.dim / 2
	for r := 0; r < h; r++ {
		copy(dst.v[r*h:(r+1)*h], src.v[(qr*h+r)*src.dim+qc*h:][:h])
	}
}

// addInto adds src into quadrant (qr, qc) of dst (dim 2·src.dim).
func addInto(dst, src block, qr, qc int) {
	h := src.dim
	for r := 0; r < h; r++ {
		drow := dst.v[(qr*h+r)*dst.dim+qc*h:][:h]
		srow := src.v[r*h : (r+1)*h]
		for c := range srow {
			drow[c] += srow[c]
		}
	}
}

// mulInto computes dst = a·b for equal-dim blocks (naive cubic kernel).
func mulInto(dst, a, b block) {
	d := dst.dim
	for r := 0; r < d; r++ {
		drow := dst.v[r*d : (r+1)*d]
		for c := range drow {
			drow[c] = 0
		}
		for k := 0; k < d; k++ {
			x := a.v[r*d+k]
			if x == 0 {
				continue
			}
			brow := b.v[k*d : (k+1)*d]
			for c := range drow {
				drow[c] += x * brow[c]
			}
		}
	}
}

// children maps child q ∈ [0,8) of a node to the operand quadrants and the
// output quadrant it contributes to: C[cq] += A[aq0,aq1] · B[bq0,bq1].
var children = [8]struct{ ar, ac, br, bc, cr, cc int }{
	{0, 0, 0, 0, 0, 0}, // A11·B11 → C11
	{0, 1, 1, 0, 0, 0}, // A12·B21 → C11
	{0, 0, 0, 1, 0, 1}, // A11·B12 → C12
	{0, 1, 1, 1, 0, 1}, // A12·B22 → C12
	{1, 0, 0, 0, 1, 0}, // A21·B11 → C21
	{1, 1, 1, 0, 1, 0}, // A22·B21 → C21
	{1, 0, 0, 1, 1, 1}, // A21·B12 → C22
	{1, 1, 1, 1, 1, 1}, // A22·B22 → C22
}

// Multiplier is a breadth-first D&C matrix multiplication instance. It
// implements core.GPUAlg. Single-use.
type Multiplier struct {
	n     int // matrix dimension
	depth int // recursion depth; leaves are (n>>depth)-dim block products
	// ops[l] and prods[l] hold the 8^l operand pairs and products of
	// level l, each of dimension n>>l.
	opsA, opsB [][]block
	prods      [][]block
	finished   bool
}

var _ core.GPUAlg = (*Multiplier)(nil)

// New builds a Multiplier for C = A·B, with A and B given row-major of
// dimension n (a power of two). depth is the recursion depth: 8^depth leaf
// blocks of dimension n>>depth are multiplied directly; it must satisfy
// 1 ≤ depth and n>>depth ≥ 1.
func New(a, b []float64, n, depth int) (*Multiplier, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("matmul: dimension %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	if len(a) != n*n || len(b) != n*n {
		return nil, fmt.Errorf("matmul: operand sizes %d, %d do not match n²=%d: %w", len(a), len(b), n*n, dcerr.ErrBadShape)
	}
	if depth < 1 || n>>depth < 1 {
		return nil, fmt.Errorf("matmul: depth %d out of range for n=%d: %w", depth, n, dcerr.ErrBadShape)
	}
	m := &Multiplier{n: n, depth: depth}
	nodes := 1
	m.opsA = make([][]block, depth+1)
	m.opsB = make([][]block, depth+1)
	m.prods = make([][]block, depth+1)
	for l := 0; l <= depth; l++ {
		dim := n >> l
		m.opsA[l] = make([]block, nodes)
		m.opsB[l] = make([]block, nodes)
		m.prods[l] = make([]block, nodes)
		for i := 0; i < nodes; i++ {
			if l > 0 {
				m.opsA[l][i] = newBlock(dim)
				m.opsB[l][i] = newBlock(dim)
			}
			m.prods[l][i] = newBlock(dim)
		}
		nodes *= 8
	}
	m.opsA[0][0] = block{dim: n, v: append([]float64(nil), a...)}
	m.opsB[0][0] = block{dim: n, v: append([]float64(nil), b...)}
	return m, nil
}

// Name implements core.Alg.
func (m *Multiplier) Name() string { return "matmul" }

// Arity implements core.Alg: a = 8.
func (m *Multiplier) Arity() int { return 8 }

// Shrink implements core.Alg: b = 2.
func (m *Multiplier) Shrink() int { return 2 }

// N implements core.Alg: the matrix dimension.
func (m *Multiplier) N() int { return m.n }

// Levels implements core.Alg: the truncated recursion depth.
func (m *Multiplier) Levels() int { return m.depth }

// DivideBatch implements core.Alg: node idx extracts the operand quadrants
// of its eight children.
func (m *Multiplier) DivideBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	dim := m.n >> level
	elems := float64(dim) * float64(dim)
	a, b := m.opsA[level], m.opsB[level]
	ca, cb := m.opsA[level+1], m.opsB[level+1]
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: elems, MemWords: 4 * elems, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(elems) * 8 * 3,
		},
		Run: func(i int) {
			idx := lo + i
			for q, ch := range children {
				c := 8*idx + q
				quadrant(ca[c], a[idx], ch.ar, ch.ac)
				quadrant(cb[c], b[idx], ch.br, ch.bc)
			}
		},
	}
}

// BaseBatch implements core.Alg: each leaf is a direct block product.
func (m *Multiplier) BaseBatch(lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	dim := m.n >> m.depth
	cube := float64(dim) * float64(dim) * float64(dim)
	a, b, p := m.opsA[m.depth], m.opsB[m.depth], m.prods[m.depth]
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: 2 * cube, MemWords: cube, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(dim) * int64(dim) * 8 * 3,
		},
		Run: func(i int) {
			idx := lo + i
			mulInto(p[idx], a[idx], b[idx])
		},
	}
}

// CombineBatch implements core.Alg: node idx accumulates its eight child
// products into its output quadrants.
func (m *Multiplier) CombineBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	dim := m.n >> level
	elems := float64(dim) * float64(dim)
	p, cp := m.prods[level], m.prods[level+1]
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: 2 * elems, MemWords: 3 * elems, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(elems) * 8 * 3,
		},
		Run: func(i int) {
			idx := lo + i
			out := p[idx]
			for j := range out.v {
				out.v[j] = 0
			}
			for q, ch := range children {
				addInto(out, cp[8*idx+q], ch.cr, ch.cc)
			}
		},
	}
}

// GPUBytes implements core.GPUAlg.
func (m *Multiplier) GPUBytes(level, lo, hi int) int64 {
	dim := int64(m.n >> level)
	return int64(hi-lo) * dim * dim * 8 * 3
}

// Finish implements core.Finisher.
func (m *Multiplier) Finish() { m.finished = true }

// Result returns C = A·B row-major. Valid only after an executor completed.
func (m *Multiplier) Result() []float64 {
	if !m.finished {
		panic("matmul: Result before execution finished")
	}
	return m.prods[0][0].v
}

// ModelF returns the model-level per-node divide+combine cost Θ(size²),
// where size is the block dimension.
func (m *Multiplier) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 6.5 * size * size }
}

// ModelLeaf returns the model-level cost of one leaf block product.
func (m *Multiplier) ModelLeaf() float64 {
	d := float64(m.n >> m.depth)
	return 2.5 * d * d * d
}

// Multiply is the sequential cubic reference.
func Multiply(a, b []float64, n int) []float64 {
	out := make([]float64, n*n)
	ab := block{dim: n, v: a}
	bb := block{dim: n, v: b}
	mulInto(block{dim: n, v: out}, ab, bb)
	return out
}
