// Package hybriddc is the public API of a generic hybrid CPU-GPU
// divide-and-conquer framework, a reproduction of
//
//	A. López-Ortiz, A. Salinger, R. Suderman. "Toward a Generic Hybrid
//	CPU-GPU Parallelization of Divide-and-Conquer Algorithms."
//	IJNC 4(1):131–150, 2014 (APDCM/IPDPSW 2013).
//
// The framework takes a recursive divide-and-conquer algorithm expressed as
// per-level task batches (the paper's breadth-first rewrite, Algorithm 2)
// and schedules it across a Hybrid Processing Unit — a p-core CPU plus a
// GPU with g effective cores of relative speed γ — using either the basic
// (§5.1, whole levels per unit) or the advanced (§5.2, α:(1−α) split with a
// single round trip) work division. The analytic model of §5 chooses α and
// the transfer level y.
//
// Two backends execute the same plans: a deterministic virtual-time
// simulator calibrated to the paper's two platforms (for reproducing its
// evaluation; Go has no GPU bindings), and a real-goroutine backend for
// multi-core execution and race testing.
//
// # Quick start
//
//	in := ...                        // a power-of-two []int32
//	sorter, _ := hybriddc.NewMergesort(in)
//	be := hybriddc.MustSim(hybriddc.HPU1())
//	alpha, y := hybriddc.PlanAdvanced(be, sorter)
//	rep, _ := hybriddc.RunAdvancedHybridCtx(context.Background(), be, sorter,
//	    alpha, y, hybriddc.WithCoalesce())
//	sorted := sorter.Result()
//
// The *Ctx executors accept a context for cancellation and functional
// options (WithCoalesce, WithSplit, WithGrain, WithTrace, WithMetrics,
// WithSpanRecorder). A platform other than the paper's two is a Platform
// value edited or written out in full, built with NewSim.
//
// See the examples/ directory for complete programs, and internal/exp for
// the drivers that regenerate every table and figure of the paper.
package hybriddc

import (
	"math"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/fft"
	"repro/internal/algos/karatsuba"
	"repro/internal/algos/matmul"
	"repro/internal/algos/maxsubarray"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/algos/strassen"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/hpu"
	"repro/internal/model"
	"repro/internal/native"
	"repro/internal/tune"
)

// Core framework types.
type (
	// Cost is the normalized per-task cost description.
	Cost = core.Cost
	// Batch is a homogeneous set of independent tasks (one level slice).
	Batch = core.Batch
	// Alg is a breadth-first divide-and-conquer algorithm.
	Alg = core.Alg
	// GPUAlg is an Alg that can run on the device: Alg plus GPUBytes, its
	// link footprint. The device runs its CPU batches unless it also has
	// GPUDivideBatch, GPUBaseBatch and GPUCombineBatch, its own kernels.
	GPUAlg = core.GPUAlg
	// Transformable is a GPUAlg supporting the §6.3 coalescing layout.
	Transformable = core.Transformable
	// Backend is an execution platform (simulated or native).
	Backend = core.Backend
	// LevelExecutor is one processing unit of a Backend.
	LevelExecutor = core.LevelExecutor
	// Report summarizes one execution.
	Report = core.Report
)

// Platforms and backends.
type (
	// Platform is a full HPU specification (CPU, GPU, link).
	Platform = hpu.Platform
	// Sim is the virtual-time simulated backend.
	Sim = hpu.Sim
	// NativeConfig configures the real-goroutine backend.
	NativeConfig = native.Config
	// Native is the real-goroutine backend.
	Native = native.Backend
)

// HPU1 returns the paper's first platform (Core 2 Q6850 + Radeon HD 5970).
func HPU1() Platform { return hpu.HPU1() }

// HPU2 returns the paper's second platform (AMD A6-3650 APU + HD 6530D).
func HPU2() Platform { return hpu.HPU2() }

// NewSim builds a simulated backend for a platform.
func NewSim(p Platform) (*Sim, error) { return hpu.NewSim(p) }

// MustSim is NewSim panicking on error.
func MustSim(p Platform) *Sim { return hpu.MustSim(p) }

// NewNative starts a real-goroutine backend; call Close when done.
func NewNative(cfg NativeConfig) (*Native, error) { return native.New(cfg) }

// Analytic model.
type (
	// Machine is the (p, g, γ) triple of Table 2.
	Machine = model.Machine
	// PolyModel is the closed-form §5.2.2 model for f(n) = Θ(n^{log_b a}).
	PolyModel = model.Poly
	// NumericModel is the level-by-level model for arbitrary cost shapes.
	NumericModel = model.Numeric
	// Prediction decomposes a predicted advanced-division makespan.
	Prediction = model.Prediction
)

// NewPolyModel builds a closed-form model.
func NewPolyModel(a, b int, n float64, m Machine) (PolyModel, error) {
	return model.NewPoly(a, b, n, m)
}

// NewNumericModel builds a level-by-level model.
func NewNumericModel(a, b, levels int, f func(float64) float64, leaf float64, m Machine) (NumericModel, error) {
	return model.NewNumeric(a, b, levels, f, leaf, m)
}

// BasicCrossover returns the §5.1 crossover level ⌈log_a(p/γ)⌉ and whether
// the GPU wins at all (γ·g ≥ p).
func BasicCrossover(a int, m Machine) (int, bool) { return model.BasicCrossover(a, m) }

// MachineOf extracts the model machine from a simulated backend.
func MachineOf(be *Sim) Machine {
	pl := be.Platform()
	return Machine{P: pl.CPU.Cores, G: pl.GPU.SatThreads, Gamma: pl.GPU.Gamma}
}

// Modeled is implemented by the built-in algorithms: it exposes the
// model-level cost function of the recurrence T(n) = a·T(n/b) + f(n).
type Modeled = core.Modeled

// PlanAdvanced chooses (α, y) for an algorithm on a simulated backend by
// maximizing GPU work under the closed-form model when the algorithm's cost
// is of the Θ(n^{log_b a}) family, falling back to a numeric makespan search
// otherwise. It mirrors the parameter selection of §5.2.2/§6.4.
func PlanAdvanced(be *Sim, alg Alg) (alpha float64, y int) {
	mach := MachineOf(be)
	L := alg.Levels()
	if m, ok := alg.(Modeled); ok {
		f := m.ModelF()
		// Detect the polynomial family: f(size)/size^{log_b a} constant.
		e := math.Log(float64(alg.Arity())) / math.Log(float64(alg.Shrink()))
		r1 := f(1<<10) / math.Pow(1<<10, e)
		r2 := f(1<<16) / math.Pow(1<<16, e)
		if math.Abs(r1-r2) < 1e-9*math.Abs(r1) {
			if poly, err := model.NewPoly(alg.Arity(), alg.Shrink(),
				math.Pow(float64(alg.Shrink()), float64(L)), mach); err == nil {
				a, yf, _ := poly.Optimum()
				yi := int(yf + 0.5)
				if yi < 0 {
					yi = 0
				}
				if yi > L {
					yi = L
				}
				return a, yi
			}
		}
		if num, err := model.NewNumeric(alg.Arity(), alg.Shrink(), L, f, m.ModelLeaf(), mach); err == nil {
			a, yi, _ := num.BestAdvanced(100)
			return a, yi
		}
	}
	// No cost information: fall back to the paper's mergesort-like shape.
	x, ok := model.BasicCrossover(alg.Arity(), mach)
	if !ok {
		return 1, L
	}
	if x > L {
		x = L
	}
	return float64(mach.P) / float64(mach.G), x
}

// TuneConfig bounds the empirical parameter search (§7's experimental
// alternative to the analytic model).
type TuneConfig = tune.Config

// TuneResult reports a tuned configuration.
type TuneResult = tune.Result

// TuneAdvanced searches (α, y) empirically: trial runs one configuration
// and returns its makespan in seconds.
func TuneAdvanced(trial func(alpha float64, y int) (float64, error), cfg TuneConfig) (TuneResult, error) {
	return tune.Advanced(trial, cfg)
}

// RunMultiGPUCtx is the §3.2 multiple-cards extension of the advanced
// division, with cancellation and functional options; use it with
// NewMultiSim (or any backend exposing several devices through GPUs()).
var RunMultiGPUCtx = core.RunMultiGPUCtx

// MultiSim is a simulated HPU with several GPU devices sharing one link.
type MultiSim = hpu.MultiSim

// NewMultiSim builds a simulated HPU with `devices` copies of the
// platform's GPU (HPU1's HD 5970 is physically devices=2).
func NewMultiSim(p Platform, devices int) (*MultiSim, error) {
	return hpu.NewMultiSim(p, devices)
}

// Parameter estimation (§6.4).
type (
	// EstimateResult is one platform row of Table 2.
	EstimateResult = estimate.Result
)

// EstimatePlatform recovers (p, g, γ) by running the §6.4 procedures on the
// simulated platform.
func EstimatePlatform(p Platform) (EstimateResult, error) { return estimate.Platform(p) }

// Built-in algorithms.

// NewMergesort builds the §6 case-study sorter over a copy of data
// (power-of-two length). It supports the §6.3 coalescing transformation.
func NewMergesort(data []int32) (*mergesort.Sorter, error) { return mergesort.New(data) }

// NewMergesortAny builds a sorter for any input length >= 2 (the paper's
// footnote-4 generalization; no coalescing transformation).
func NewMergesortAny(data []int32) (*mergesort.AnySorter, error) { return mergesort.NewAny(data) }

// NewParallelMergesort builds the Fig 9 GPU-only baseline with parallel
// binary-search merges.
func NewParallelMergesort(data []int32) (*mergesort.ParallelSorter, error) {
	return mergesort.NewParallel(data)
}

// NewSum builds the §4.3 divide-and-conquer sum example.
func NewSum(data []int32) (*dcsum.Summer, error) { return dcsum.New(data) }

// NewMaxSubarray builds a maximum-subarray solver.
func NewMaxSubarray(data []int32) (*maxsubarray.Solver, error) { return maxsubarray.New(data) }

// NewKaratsuba builds a Karatsuba polynomial multiplier (a=3, b=2).
func NewKaratsuba(a, b []int32) (*karatsuba.Multiplier, error) { return karatsuba.New(a, b) }

// NewMatMul builds a D&C matrix multiplier (a=8, b=2) with the recursion
// truncated at the given depth.
func NewMatMul(a, b []float64, n, depth int) (*matmul.Multiplier, error) {
	return matmul.New(a, b, n, depth)
}

// NewScan builds an inclusive prefix-sum scanner (a=2, b=2, uniform
// non-divergent combine — the canonical GPU primitive).
func NewScan(data []int32) (*scan.Scanner, error) { return scan.New(data) }

// NewFFT builds a forward Cooley-Tukey transform (a=2, b=2, real divide
// work).
func NewFFT(data []complex128) (*fft.Transform, error) { return fft.New(data) }

// NewInverseFFT builds the inverse transform (scaled by 1/n on Finish).
func NewInverseFFT(data []complex128) (*fft.Transform, error) { return fft.NewInverse(data) }

// NewStrassen builds a Strassen matrix multiplier (a=7, b=2) truncated at
// the given depth.
func NewStrassen(a, b []float64, n, depth int) (*strassen.Multiplier, error) {
	return strassen.New(a, b, n, depth)
}
