package model

import (
	"fmt"
	"math"

	"repro/internal/dcerr"
)

// Numeric is the level-by-level model for an arbitrary divide-and-conquer
// cost profile. Unlike Poly it makes no assumption on f, uses the same
// integer rounding as the executors in internal/core, and produces
// end-to-end makespan predictions (the green "predicted" series of Fig 8).
type Numeric struct {
	// A, B are the recurrence parameters.
	A, B int
	// L is the number of internal levels (leaf level is L).
	L int
	// N is the input size (b^L).
	N float64
	// F is the divide+combine cost of one subproblem of the given size, in
	// normalized ops.
	F func(size float64) float64
	// Leaf is the cost of one base case.
	Leaf float64
	// Mach is the HPU parameter triple.
	Mach Machine

	// Per-level terms memoised by NewNumeric, indexed by level: a search
	// over (α, y) or crossovers evaluates thousands of predictions against
	// the same L+1 levels, and math.Pow per term dominated all of them. A
	// Numeric built as a literal has none and computes each term on demand.
	pow  []float64 // a^level
	sz   []float64 // N / b^level
	cost []float64 // F(sz[level]), levels 0..L-1: the leaf level has no F term
	seq  float64   // SequentialTime
}

// checkRecurrence validates the machine-independent model inputs.
func checkRecurrence(a, b, levels int, f func(float64) float64, leaf float64) error {
	if a < 2 || b < 2 {
		return fmt.Errorf("model: recurrence needs a,b >= 2, got a=%d b=%d: %w", a, b, dcerr.ErrBadParam)
	}
	if levels < 1 {
		return fmt.Errorf("model: need at least one level, got %d: %w", levels, dcerr.ErrBadParam)
	}
	if f == nil {
		return fmt.Errorf("model: nil cost function: %w", dcerr.ErrBadParam)
	}
	if leaf < 0 {
		return fmt.Errorf("model: negative leaf cost %g: %w", leaf, dcerr.ErrBadParam)
	}
	return nil
}

// NewNumeric validates and builds a numeric model for n = b^levels.
func NewNumeric(a, b, levels int, f func(float64) float64, leaf float64, mach Machine) (Numeric, error) {
	if err := checkRecurrence(a, b, levels, f, leaf); err != nil {
		return Numeric{}, err
	}
	if err := mach.Validate(); err != nil {
		return Numeric{}, err
	}
	m := Numeric{A: a, B: b, L: levels, N: math.Pow(float64(b), float64(levels)),
		F: f, Leaf: leaf, Mach: mach}
	memo := make([]float64, 3*levels+2)
	pow, sz, cost := memo[:levels+1], memo[levels+1:2*levels+2], memo[2*levels+2:]
	for i := 0; i <= levels; i++ {
		pow[i], sz[i] = m.tasks(i), m.size(i) // m has no memo yet: computed
	}
	for i := 0; i < levels; i++ {
		cost[i] = f(sz[i])
	}
	m.pow, m.sz, m.cost = pow, sz, cost
	m.seq = m.sequential()
	return m, nil
}

// SequentialWork is the recurrence's single-core time — what
// NewNumeric(...).SequentialTime() returns under any machine — for callers
// that price one job once and need none of the per-level predictions.
func SequentialWork(a, b, levels int, f func(float64) float64, leaf float64) (float64, error) {
	if err := checkRecurrence(a, b, levels, f, leaf); err != nil {
		return 0, err
	}
	m := Numeric{A: a, B: b, L: levels, N: math.Pow(float64(b), float64(levels)), F: f, Leaf: leaf}
	return m.sequential(), nil
}

// size returns the subproblem size at a level.
func (m Numeric) size(level int) float64 {
	if level < len(m.sz) {
		return m.sz[level]
	}
	return m.N / math.Pow(float64(m.B), float64(level))
}

// tasks returns a^level as a float (levels can be deep enough to overflow
// int for a > 2).
func (m Numeric) tasks(level int) float64 {
	if level < len(m.pow) {
		return m.pow[level]
	}
	return math.Pow(float64(m.A), float64(level))
}

// levelCost returns F at a level's subproblem size.
func (m Numeric) levelCost(level int) float64 {
	if level < len(m.cost) {
		return m.cost[level]
	}
	return m.F(m.size(level))
}

// cpuLevel returns the time for k tasks of cost c on the p-core CPU.
func (m Numeric) cpuLevel(k, c float64) float64 {
	if k <= 0 {
		return 0
	}
	return c * math.Ceil(k/float64(m.Mach.P))
}

// gpuLevel returns the time for k tasks of cost c on the GPU, at the §5
// assumption of γ per lane (divergent kernels).
func (m Numeric) gpuLevel(k, c float64) float64 {
	if k <= 0 {
		return 0
	}
	return c / m.Mach.Gamma * math.Max(1, k/float64(m.Mach.G))
}

// SequentialTime is the single-core makespan: the denominator of every
// speedup in §6.4.
func (m Numeric) SequentialTime() float64 {
	if m.cost != nil {
		return m.seq
	}
	return m.sequential()
}

func (m Numeric) sequential() float64 {
	t := m.tasks(m.L) * m.Leaf
	for i := 0; i < m.L; i++ {
		t += m.tasks(i) * m.levelCost(i)
	}
	return t
}

// Prediction decomposes a predicted advanced-division makespan.
type Prediction struct {
	// CPUPhase is the CPU chain's bottom-up time over its α-portion.
	CPUPhase float64
	// GPUPhase is the GPU chain's bottom-up time through the transfer
	// level (no link cost: the model ignores transfers, as in §3.2).
	GPUPhase float64
	// Tail is the CPU-only remainder after the two chains join.
	Tail float64
	// Makespan is max(CPUPhase, GPUPhase) + Tail.
	Makespan float64
	// GPUWorkFraction is the share of total work the GPU executed.
	GPUWorkFraction float64
}

// PredictAdvanced evaluates the advanced division with CPU ratio alpha,
// transfer level y and split level s, using the same integer rounding as
// core.RunAdvancedHybrid.
func (m Numeric) PredictAdvanced(alpha float64, y, s int) (Prediction, error) {
	if alpha < 0 || alpha > 1 {
		return Prediction{}, fmt.Errorf("model: alpha %g: %w", alpha, dcerr.ErrBadAlpha)
	}
	if y < 0 || y > m.L {
		return Prediction{}, fmt.Errorf("model: transfer level %d out of range [0,%d]: %w", y, m.L, dcerr.ErrBadLevel)
	}
	if s < 0 || s > y {
		return Prediction{}, fmt.Errorf("model: split level %d out of range [0,%d]: %w", s, y, dcerr.ErrBadLevel)
	}
	width := m.tasks(s)
	cCount := math.Round(alpha * width)
	gCount := width - cCount
	scale := func(level int) float64 { return m.tasks(level - s) }

	var pr Prediction
	var gpuWork float64

	// CPU chain: its portion, leaves up to the split level.
	if cCount > 0 {
		pr.CPUPhase += m.cpuLevel(cCount*scale(m.L), m.Leaf)
		for i := m.L - 1; i >= s; i-- {
			pr.CPUPhase += m.cpuLevel(cCount*scale(i), m.levelCost(i))
		}
	}
	// GPU chain: its portion, leaves up to the transfer level.
	if gCount > 0 {
		kLeaf := gCount * scale(m.L)
		pr.GPUPhase += m.gpuLevel(kLeaf, m.Leaf)
		gpuWork += kLeaf * m.Leaf
		for i := m.L - 1; i >= y; i-- {
			k := gCount * scale(i)
			pr.GPUPhase += m.gpuLevel(k, m.levelCost(i))
			gpuWork += k * m.levelCost(i)
		}
		// Above the transfer level the GPU portion finishes on the CPU.
		for i := y - 1; i >= s; i-- {
			pr.Tail += m.cpuLevel(gCount*scale(i), m.levelCost(i))
		}
	}
	// Joint levels above the split.
	for i := s - 1; i >= 0; i-- {
		pr.Tail += m.cpuLevel(m.tasks(i), m.levelCost(i))
	}
	pr.Makespan = math.Max(pr.CPUPhase, pr.GPUPhase) + pr.Tail
	pr.GPUWorkFraction = gpuWork / m.SequentialTime()
	return pr, nil
}

// PredictBasic evaluates the basic division (§5.1) with the GPU running all
// levels at and below the crossover.
func (m Numeric) PredictBasic(crossover int) (float64, error) {
	if crossover < 0 || crossover > m.L {
		return 0, fmt.Errorf("model: crossover %d out of range [0,%d]: %w", crossover, m.L, dcerr.ErrBadLevel)
	}
	var t float64
	for i := 0; i < crossover; i++ {
		t += m.cpuLevel(m.tasks(i), m.levelCost(i))
	}
	for i := crossover; i < m.L; i++ {
		t += m.gpuLevel(m.tasks(i), m.levelCost(i))
	}
	t += m.gpuLevel(m.tasks(m.L), m.Leaf)
	return t, nil
}

// PredictBasicParts decomposes PredictBasic(crossover) into its CPU and GPU
// unit times, so an online calibrator can scale each side by an observed
// per-unit rate before summing (internal/autotune). PredictBasic(x) equals
// the sum of the two parts.
func (m Numeric) PredictBasicParts(crossover int) (cpu, gpu float64, err error) {
	if crossover < 0 || crossover > m.L {
		return 0, 0, fmt.Errorf("model: crossover %d out of range [0,%d]: %w", crossover, m.L, dcerr.ErrBadLevel)
	}
	for i := 0; i < crossover; i++ {
		cpu += m.cpuLevel(m.tasks(i), m.levelCost(i))
	}
	for i := crossover; i < m.L; i++ {
		gpu += m.gpuLevel(m.tasks(i), m.levelCost(i))
	}
	gpu += m.gpuLevel(m.tasks(m.L), m.Leaf)
	return cpu, gpu, nil
}

// PredictBreadthFirstCPU is the level-parallel CPU-only makespan: every
// level at full width on the p-core CPU, leaves included.
func (m Numeric) PredictBreadthFirstCPU() float64 {
	t := m.cpuLevel(m.tasks(m.L), m.Leaf)
	for i := 0; i < m.L; i++ {
		t += m.cpuLevel(m.tasks(i), m.levelCost(i))
	}
	return t
}

// PredictGPUOnly is the all-device makespan (PredictBasic with the crossover
// at the root): every level breadth-first on the GPU. Link cost is not
// included, as in §3.2; calibrated callers add their fitted transfer model.
func (m Numeric) PredictGPUOnly() float64 {
	t, _ := m.PredictBasic(0)
	return t
}

// DefaultSplit mirrors core.DefaultSplit: ⌈log_a(p/α)⌉ clamped to [0, y].
func (m Numeric) DefaultSplit(alpha float64, y int) int {
	if alpha <= 0 {
		return 0
	}
	s := 0
	for alpha*m.tasks(s) < float64(m.Mach.P) && s < y {
		s++
	}
	return s
}

// BestAdvanced searches (α, y) for the minimum predicted makespan, with the
// split level at its default. alphaSteps controls the grid resolution.
func (m Numeric) BestAdvanced(alphaSteps int) (alpha float64, y int, best Prediction) {
	if alphaSteps < 2 {
		alphaSteps = 100
	}
	best.Makespan = math.Inf(1)
	for yi := 0; yi <= m.L; yi++ {
		for i := 1; i < alphaSteps; i++ {
			a := float64(i) / float64(alphaSteps)
			s := m.DefaultSplit(a, yi)
			pr, err := m.PredictAdvanced(a, yi, s)
			if err == nil && pr.Makespan < best.Makespan {
				best, alpha, y = pr, a, yi
			}
		}
	}
	return alpha, y, best
}
