// Package strassen implements Strassen's matrix multiplication
// (T(n) = 7T(n/2) + Θ(n²)) for the generic hybrid framework. With a = 7 it
// exercises an odd branching factor, a divide phase that computes the ten
// Strassen operand sums, and — like internal/algos/matmul — a recursion
// truncated at a configurable depth with direct leaf block products.
package strassen

import (
	"fmt"

	"repro/internal/core"

	"repro/internal/dcerr"
)

// mat is a square row-major matrix of dimension dim.
type mat struct {
	dim int
	v   []float64
}

// node returns node idx's matrix of dimension dim, cut from the level slab
// s that holds the level's matrices back to back.
func node(s []float64, idx, dim int) mat {
	e := dim * dim
	return mat{dim: dim, v: s[idx*e : (idx+1)*e : (idx+1)*e]}
}

// quad returns a copy of quadrant (qr, qc) of m.
func (m mat) quad(dst mat, qr, qc int) {
	h := m.dim / 2
	for r := 0; r < h; r++ {
		copy(dst.v[r*h:(r+1)*h], m.v[(qr*h+r)*m.dim+qc*h:][:h])
	}
}

// setQuadAdd adds src (dim h) scaled by sign into quadrant (qr, qc) of m.
func (m mat) setQuadAdd(src mat, qr, qc int, sign float64) {
	h := src.dim
	for r := 0; r < h; r++ {
		drow := m.v[(qr*h+r)*m.dim+qc*h:][:h]
		srow := src.v[r*h : (r+1)*h]
		for c := range srow {
			drow[c] += sign * srow[c]
		}
	}
}

// addQuads writes qa(A) op qb(A) into dst: dst = quad(m, a) + sign·quad(m, b).
func addQuads(dst, m mat, ar, ac int, sign float64, br, bc int) {
	h := m.dim / 2
	for r := 0; r < h; r++ {
		arow := m.v[(ar*h+r)*m.dim+ac*h:][:h]
		brow := m.v[(br*h+r)*m.dim+bc*h:][:h]
		drow := dst.v[r*h : (r+1)*h]
		for c := range drow {
			drow[c] = arow[c] + sign*brow[c]
		}
	}
}

func mulInto(dst, a, b mat) {
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

// Strassen's seven products, expressed as (left operand, right operand)
// where each operand is quad1 ± quad2 of A or B (quad2 dim < 0 means "no
// second quadrant").
//
//	M1 = (A11+A22)(B11+B22)   M2 = (A21+A22)B11     M3 = A11(B12−B22)
//	M4 = A22(B21−B11)          M5 = (A11+A12)B22    M6 = (A21−A11)(B11+B12)
//	M7 = (A12−A22)(B21+B22)
type operand struct {
	r1, c1 int
	sign   float64 // 0 means single quadrant
	r2, c2 int
}

var products = [7]struct{ a, b operand }{
	{operand{0, 0, +1, 1, 1}, operand{0, 0, +1, 1, 1}}, // M1
	{operand{1, 0, +1, 1, 1}, operand{0, 0, 0, 0, 0}},  // M2
	{operand{0, 0, 0, 0, 0}, operand{0, 1, -1, 1, 1}},  // M3
	{operand{1, 1, 0, 0, 0}, operand{1, 0, -1, 0, 0}},  // M4
	{operand{0, 0, +1, 0, 1}, operand{1, 1, 0, 0, 0}},  // M5
	{operand{1, 0, -1, 0, 0}, operand{0, 0, +1, 0, 1}}, // M6
	{operand{0, 1, -1, 1, 1}, operand{1, 0, +1, 1, 1}}, // M7
}

// combineTerms maps output quadrant (index qr*2+qc) to signed products:
//
//	C11 = M1+M4−M5+M7; C12 = M3+M5; C21 = M2+M4; C22 = M1−M2+M3+M6.
var combineTerms = [4][]struct {
	m    int
	sign float64
}{
	{{0, 1}, {3, 1}, {4, -1}, {6, 1}},
	{{2, 1}, {4, 1}},
	{{1, 1}, {3, 1}},
	{{0, 1}, {1, -1}, {2, 1}, {5, 1}},
}

// Multiplier is a breadth-first Strassen instance. It implements
// core.GPUAlg. Single-use.
type Multiplier struct {
	n, depth int
	// opsA[l], opsB[l] and prods[l] are level l's slabs: its 7^l operand
	// matrices and products of dimension n>>l, back to back (see node), so
	// New allocates O(depth) objects, not one per tree node.
	opsA, opsB [][]float64
	prods      [][]float64
	finished   bool
}

var _ core.GPUAlg = (*Multiplier)(nil)

// New builds a Multiplier for C = A·B with row-major operands of dimension
// n (a power of two). 8^… memory note: level l stores 7^l blocks, so depth
// is typically small (≤ 4).
func New(a, b []float64, n, depth int) (*Multiplier, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("strassen: dimension %d: %w", n, dcerr.ErrNotPowerOfTwo)
	}
	if len(a) != n*n || len(b) != n*n {
		return nil, fmt.Errorf("strassen: operand sizes %d, %d do not match n²=%d: %w", len(a), len(b), n*n, dcerr.ErrBadShape)
	}
	if depth < 1 || n>>depth < 1 {
		return nil, fmt.Errorf("strassen: depth %d out of range for n=%d: %w", depth, n, dcerr.ErrBadShape)
	}
	m := &Multiplier{n: n, depth: depth}
	m.opsA = make([][]float64, depth+1)
	m.opsB = make([][]float64, depth+1)
	m.prods = make([][]float64, depth+1)
	m.opsA[0] = append([]float64(nil), a...)
	m.opsB[0] = append([]float64(nil), b...)
	m.prods[0] = make([]float64, n*n)
	nodes := 1
	for l := 1; l <= depth; l++ {
		nodes *= 7
		dim := n >> l
		m.opsA[l] = make([]float64, nodes*dim*dim)
		m.opsB[l] = make([]float64, nodes*dim*dim)
		m.prods[l] = make([]float64, nodes*dim*dim)
	}
	return m, nil
}

// Name implements core.Alg.
func (m *Multiplier) Name() string { return "strassen" }

// Arity implements core.Alg: a = 7.
func (m *Multiplier) Arity() int { return 7 }

// Shrink implements core.Alg: b = 2.
func (m *Multiplier) Shrink() int { return 2 }

// N implements core.Alg: the matrix dimension.
func (m *Multiplier) N() int { return m.n }

// Levels implements core.Alg: the truncated recursion depth.
func (m *Multiplier) Levels() int { return m.depth }

// buildOperand materializes one Strassen operand into dst.
func buildOperand(dst, src mat, op operand) {
	if op.sign == 0 {
		src.quad(dst, op.r1, op.c1)
		return
	}
	addQuads(dst, src, op.r1, op.c1, op.sign, op.r2, op.c2)
}

// DivideBatch implements core.Alg: node idx forms the seven children's
// operand pairs (the ten Strassen sums plus four plain quadrants).
func (m *Multiplier) DivideBatch(level, lo, hi int) core.Batch {
	if hi <= lo {
		return core.Batch{}
	}
	dim := m.n >> level
	elems := float64(dim) * float64(dim)
	a, bm := m.opsA[level], m.opsB[level]
	ca, cb := m.opsA[level+1], m.opsB[level+1]
	return core.Batch{
		Tasks: hi - lo,
		Cost: core.Cost{
			Ops: 2.5 * elems, MemWords: 7 * elems, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(elems) * 8 * 3,
		},
		Run: func(i int) {
			idx := lo + i
			pa, pb := node(a, idx, dim), node(bm, idx, dim)
			for q, pr := range products {
				c := 7*idx + q
				buildOperand(node(ca, c, dim/2), pa, pr.a)
				buildOperand(node(cb, c, dim/2), pb, pr.b)
			}
		},
	}
}

// BaseBatch implements core.Alg: direct leaf block products.
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
			mulInto(node(p, idx, dim), node(a, idx, dim), node(b, idx, dim))
		},
	}
}

// CombineBatch implements core.Alg: node idx assembles its product's four
// quadrants from the seven child products.
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
			Ops: 3 * elems, MemWords: 5 * elems, Coalesced: false, Divergent: false,
			WorkingSet: int64(hi-lo) * int64(elems) * 8 * 2,
		},
		Run: func(i int) {
			idx := lo + i
			out := node(p, idx, dim)
			for j := range out.v {
				out.v[j] = 0
			}
			for quad, terms := range combineTerms {
				for _, tm := range terms {
					out.setQuadAdd(node(cp, 7*idx+tm.m, dim/2), quad/2, quad%2, tm.sign)
				}
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
		panic("strassen: Result before execution finished")
	}
	return m.prods[0]
}

// ModelF returns the model-level per-node divide+combine cost Θ(size²).
func (m *Multiplier) ModelF() func(float64) float64 {
	return func(size float64) float64 { return 11.5 * size * size }
}

// ModelLeaf returns the model-level cost of one leaf block product.
func (m *Multiplier) ModelLeaf() float64 {
	d := float64(m.n >> m.depth)
	return 2.5 * d * d * d
}
