package model

import (
	"math"
	"testing"
)

// direct is the level-by-level model with every a^i, N/b^i and F term
// computed where it is used — the formulas NewNumeric now memoises, kept
// here as the reference the memoised predictions must equal bit for bit.
type direct struct{ Numeric }

func (d direct) tasks(i int) float64 { return math.Pow(float64(d.A), float64(i)) }
func (d direct) size(i int) float64  { return d.N / math.Pow(float64(d.B), float64(i)) }
func (d direct) f(i int) float64     { return d.F(d.size(i)) }

func (d direct) sequential() float64 {
	t := d.tasks(d.L) * d.Leaf
	for i := 0; i < d.L; i++ {
		t += d.tasks(i) * d.f(i)
	}
	return t
}

func (d direct) breadthFirstCPU() float64 {
	t := d.cpuLevel(d.tasks(d.L), d.Leaf)
	for i := 0; i < d.L; i++ {
		t += d.cpuLevel(d.tasks(i), d.f(i))
	}
	return t
}

func (d direct) basicParts(x int) (cpu, gpu float64) {
	for i := 0; i < x; i++ {
		cpu += d.cpuLevel(d.tasks(i), d.f(i))
	}
	for i := x; i < d.L; i++ {
		gpu += d.gpuLevel(d.tasks(i), d.f(i))
	}
	gpu += d.gpuLevel(d.tasks(d.L), d.Leaf)
	return cpu, gpu
}

func (d direct) advanced(alpha float64, y, s int) Prediction {
	width := d.tasks(s)
	cCount := math.Round(alpha * width)
	gCount := width - cCount
	scale := func(level int) float64 { return math.Pow(float64(d.A), float64(level-s)) }
	var pr Prediction
	var gpuWork float64
	if cCount > 0 {
		pr.CPUPhase += d.cpuLevel(cCount*scale(d.L), d.Leaf)
		for i := d.L - 1; i >= s; i-- {
			pr.CPUPhase += d.cpuLevel(cCount*scale(i), d.f(i))
		}
	}
	if gCount > 0 {
		kLeaf := gCount * scale(d.L)
		pr.GPUPhase += d.gpuLevel(kLeaf, d.Leaf)
		gpuWork += kLeaf * d.Leaf
		for i := d.L - 1; i >= y; i-- {
			k := gCount * scale(i)
			pr.GPUPhase += d.gpuLevel(k, d.f(i))
			gpuWork += k * d.f(i)
		}
		for i := y - 1; i >= s; i-- {
			pr.Tail += d.cpuLevel(gCount*scale(i), d.f(i))
		}
	}
	for i := s - 1; i >= 0; i-- {
		pr.Tail += d.cpuLevel(d.tasks(i), d.f(i))
	}
	pr.Makespan = math.Max(pr.CPUPhase, pr.GPUPhase) + pr.Tail
	pr.GPUWorkFraction = gpuWork / d.sequential()
	return pr
}

// TestMemoisedEqualsDirect: for the four arities the algorithms use, every
// prediction from a NewNumeric model equals the direct formulas with ==, and
// a literal Numeric (no memo) agrees with both.
func TestMemoisedEqualsDirect(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   int
		levels int
		f      func(float64) float64
		leaf   float64
	}{
		{"mergesort a=2", 2, 2, 16, func(s float64) float64 { return 2 * s }, 0},
		{"karatsuba a=3", 3, 2, 10, func(s float64) float64 { return 10 * s }, 2.5},
		{"strassen a=7", 7, 2, 6, func(s float64) float64 { return 11.5 * s * s }, 1280},
		{"matmul a=8", 8, 2, 6, func(s float64) float64 { return 6.5 * s * s }, 1280},
		{"ternary shrink", 3, 3, 9, func(s float64) float64 { return s * math.Log2(s+1) }, 0.3},
	} {
		num, err := NewNumeric(tc.a, tc.b, tc.levels, tc.f, tc.leaf, hpu1())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		literal := Numeric{A: num.A, B: num.B, L: num.L, N: num.N, F: num.F, Leaf: num.Leaf, Mach: num.Mach}
		ref := direct{literal}

		want := ref.sequential()
		if got := num.SequentialTime(); got != want {
			t.Errorf("%s: SequentialTime %g, want %g", tc.name, got, want)
		}
		if got := literal.SequentialTime(); got != want {
			t.Errorf("%s: literal SequentialTime %g, want %g", tc.name, got, want)
		}
		if got, err := SequentialWork(tc.a, tc.b, tc.levels, tc.f, tc.leaf); err != nil || got != want {
			t.Errorf("%s: SequentialWork %g, %v, want %g", tc.name, got, err, want)
		}
		if got, want := num.PredictBreadthFirstCPU(), ref.breadthFirstCPU(); got != want {
			t.Errorf("%s: PredictBreadthFirstCPU %g, want %g", tc.name, got, want)
		}
		for x := 0; x <= tc.levels; x++ {
			cpu, gpu, err := num.PredictBasicParts(x)
			wantCPU, wantGPU := ref.basicParts(x)
			if err != nil || cpu != wantCPU || gpu != wantGPU {
				t.Errorf("%s: PredictBasicParts(%d) = %g, %g, %v, want %g, %g", tc.name, x, cpu, gpu, err, wantCPU, wantGPU)
			}
		}
		for y := 0; y <= tc.levels; y++ {
			for _, alpha := range []float64{0, 0.05, 0.16, 0.5, 0.95, 1} {
				s := num.DefaultSplit(alpha, y)
				if ls := literal.DefaultSplit(alpha, y); ls != s {
					t.Errorf("%s: literal DefaultSplit(%g, %d) = %d, want %d", tc.name, alpha, y, ls, s)
				}
				got, err := num.PredictAdvanced(alpha, y, s)
				if err != nil {
					t.Fatalf("%s: PredictAdvanced(%g, %d, %d): %v", tc.name, alpha, y, s, err)
				}
				if want := ref.advanced(alpha, y, s); got != want {
					t.Errorf("%s: PredictAdvanced(%g, %d, %d) = %+v, want %+v", tc.name, alpha, y, s, got, want)
				}
				if lit, _ := literal.PredictAdvanced(alpha, y, s); lit != got {
					t.Errorf("%s: literal PredictAdvanced(%g, %d, %d) = %+v, want %+v", tc.name, alpha, y, s, lit, got)
				}
			}
		}
	}
	// A transfer level past the memo (an error for PredictAdvanced) must not
	// index out of range in DefaultSplit.
	num, _ := NewNumeric(2, 2, 4, func(s float64) float64 { return s }, 0, hpu1())
	if s := num.DefaultSplit(1e-9, 40); s < 4 {
		t.Errorf("DefaultSplit past the leaf level = %d, want it to keep climbing", s)
	}
}

// TestNewNumericEvaluatesFOncePerLevel pins the memo: building the model
// calls F once per internal level and predictions never call it again.
func TestNewNumericEvaluatesFOncePerLevel(t *testing.T) {
	calls := 0
	num, err := NewNumeric(2, 2, 12, func(s float64) float64 { calls++; return 2 * s }, 0, hpu1())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 12 {
		t.Errorf("NewNumeric called F %d times, want 12 (once per internal level)", calls)
	}
	num.BestAdvanced(20)
	num.PredictBreadthFirstCPU()
	num.SequentialTime()
	if calls != 12 {
		t.Errorf("predictions called F %d more times, want 0", calls-12)
	}
}
