package core_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	. "repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/hpu"
	"repro/internal/workload"
)

// probeAlg is an instrumented GPUAlg that records every batch the executors
// actually run, so tests can assert the structural invariants of each
// strategy: phase ordering, range partitioning, and unit placement.
type probeAlg struct {
	a, levels int

	mu     sync.Mutex
	events []probeEvent
}

type probeEvent struct {
	phase string // "divide", "base", "combine", "gpu-divide", "gpu-base", "gpu-combine"
	level int    // -1 for base
	lo    int
	hi    int
}

func newProbe(a, levels int) *probeAlg { return &probeAlg{a: a, levels: levels} }

func (p *probeAlg) record(phase string, level, lo, hi int) Batch {
	if hi <= lo {
		return Batch{}
	}
	return Batch{
		Tasks: hi - lo,
		Cost:  Cost{Ops: 100},
		Run: func(i int) {
			if i != 0 {
				return
			}
			p.mu.Lock()
			p.events = append(p.events, probeEvent{phase, level, lo, hi})
			p.mu.Unlock()
		},
	}
}

func (p *probeAlg) Name() string { return "probe" }
func (p *probeAlg) Arity() int   { return p.a }
func (p *probeAlg) Shrink() int  { return 2 }
func (p *probeAlg) N() int       { return 1 << p.levels }
func (p *probeAlg) Levels() int  { return p.levels }

func (p *probeAlg) DivideBatch(level, lo, hi int) Batch {
	return p.record("divide", level, lo, hi)
}
func (p *probeAlg) BaseBatch(lo, hi int) Batch { return p.record("base", -1, lo, hi) }
func (p *probeAlg) CombineBatch(level, lo, hi int) Batch {
	return p.record("combine", level, lo, hi)
}
func (p *probeAlg) GPUDivideBatch(level, lo, hi int) Batch {
	return p.record("gpu-divide", level, lo, hi)
}
func (p *probeAlg) GPUBaseBatch(lo, hi int) Batch { return p.record("gpu-base", -1, lo, hi) }
func (p *probeAlg) GPUCombineBatch(level, lo, hi int) Batch {
	return p.record("gpu-combine", level, lo, hi)
}
func (p *probeAlg) GPUBytes(level, lo, hi int) int64 { return int64(hi-lo) * 64 }

// combinedRanges collects, per level, the executed combine ranges from both
// units.
func (p *probeAlg) combinedRanges() map[int][][2]int {
	out := map[int][][2]int{}
	for _, e := range p.events {
		if e.phase == "combine" || e.phase == "gpu-combine" {
			out[e.level] = append(out[e.level], [2]int{e.lo, e.hi})
		}
	}
	return out
}

func TestBreadthFirstStructure(t *testing.T) {
	p := newProbe(2, 5)
	be := hpu.MustSim(hpu.HPU1())
	if _, err := RunBreadthFirstCPUCtx(context.Background(), be, p); err != nil {
		t.Fatal(err)
	}

	var phases []string
	for _, e := range p.events {
		phases = append(phases, fmt.Sprintf("%s@%d", e.phase, e.level))
	}
	want := []string{
		"divide@0", "divide@1", "divide@2", "divide@3", "divide@4",
		"base@-1",
		"combine@4", "combine@3", "combine@2", "combine@1", "combine@0",
	}
	if len(phases) != len(want) {
		t.Fatalf("events = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, phases[i], want[i])
		}
	}
}

func TestSequentialStructure(t *testing.T) {
	p := newProbe(3, 3)
	be := hpu.MustSim(hpu.HPU1())
	if _, err := RunSequentialCtx(context.Background(), be, p); err != nil {
		t.Fatal(err)
	}
	// Full-width divides 0..2, base over 27 leaves, combines 2..0; all on
	// the CPU phase names.
	for _, e := range p.events {
		if e.phase == "gpu-divide" || e.phase == "gpu-base" || e.phase == "gpu-combine" {
			t.Fatalf("sequential run used GPU batch %v", e)
		}
		if e.lo != 0 {
			t.Fatalf("sequential range not full-width: %v", e)
		}
	}
	last := p.events[len(p.events)-1]
	if last.phase != "combine" || last.level != 0 {
		t.Fatalf("last event = %v, want root combine", last)
	}
}

func TestBasicHybridStructure(t *testing.T) {
	p := newProbe(2, 8)
	be := hpu.MustSim(hpu.HPU1())
	const x = 3
	if _, err := RunBasicHybridCtx(context.Background(), be, p, x); err != nil {
		t.Fatal(err)
	}
	for _, e := range p.events {
		switch e.phase {
		case "divide", "combine":
			if e.level >= x {
				t.Errorf("CPU batch below the crossover: %v", e)
			}
		case "gpu-divide", "gpu-combine":
			if e.level < x {
				t.Errorf("GPU batch above the crossover: %v", e)
			}
		case "base":
			t.Errorf("base ran on the CPU in basic hybrid: %v", e)
		}
	}
}

func TestAdvancedHybridPartition(t *testing.T) {
	for _, arity := range []int{2, 3} {
		p := newProbe(arity, 6)
		be := hpu.MustSim(hpu.HPU1())
		prm := advParams{Alpha: 0.3, Y: 4, Split: 2}
		if _, err := RunAdvancedHybridCtx(context.Background(), be, p, prm.Alpha, prm.Y, WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		width := TasksAtLevel(arity, 2)
		cCount := int(0.3*float64(width) + 0.5)

		for level, ranges := range p.combinedRanges() {
			total := 0
			for _, r := range ranges {
				total += r[1] - r[0]
			}
			if want := TasksAtLevel(arity, level); total != want {
				t.Errorf("a=%d level %d: combined tasks = %d, want %d (ranges %v)",
					arity, level, total, want, ranges)
			}
		}
		// GPU-side combine only between y and the leaves, and only over
		// the GPU portion.
		for _, e := range p.events {
			if e.phase == "gpu-combine" {
				if e.level < prm.Y {
					t.Errorf("a=%d: GPU combine above transfer level: %v", arity, e)
				}
				f := TasksAtLevel(arity, e.level-prm.Split)
				if e.lo != cCount*f {
					t.Errorf("a=%d: GPU combine range %v does not start at portion boundary %d",
						arity, e, cCount*f)
				}
			}
			if e.phase == "combine" && e.level >= prm.Split && e.level < prm.Y {
				// Between split and transfer level the CPU handles both
				// portions (its own below cL, the GPU's after handback).
				continue
			}
		}
	}
}

func TestAdvancedHybridAlphaExtremes(t *testing.T) {
	// α=1: no GPU events at all. α=0: no CPU-portion combine below split.
	p := newProbe(2, 6)
	be := hpu.MustSim(hpu.HPU1())
	if _, err := RunAdvancedHybridCtx(context.Background(), be, p, 1, 4, WithSplit(2)); err != nil {
		t.Fatal(err)
	}
	for _, e := range p.events {
		if e.phase == "gpu-combine" || e.phase == "gpu-base" || e.phase == "gpu-divide" {
			t.Errorf("α=1 run used the GPU: %v", e)
		}
	}

	p2 := newProbe(2, 6)
	be2 := hpu.MustSim(hpu.HPU1())
	if _, err := RunAdvancedHybridCtx(context.Background(), be2, p2, 0, 4, WithSplit(2)); err != nil {
		t.Fatal(err)
	}
	sawGPU := false
	for _, e := range p2.events {
		if e.phase == "gpu-combine" {
			sawGPU = true
		}
		if (e.phase == "combine" || e.phase == "base") && e.level > 4 {
			t.Errorf("α=0 run did CPU work below the transfer level: %v", e)
		}
	}
	if !sawGPU {
		t.Error("α=0 run never used the GPU")
	}
}

func TestGPUOnlyStructure(t *testing.T) {
	p := newProbe(2, 5)
	be := hpu.MustSim(hpu.HPU1())
	rep, err := RunGPUOnlyCtx(context.Background(), be, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.events {
		switch e.phase {
		case "divide", "base", "combine":
			t.Errorf("GPU-only run used CPU batch %v", e)
		}
	}
	if rep.GPUPortionSeconds <= 0 || rep.GPUPortionSeconds > rep.Seconds {
		t.Errorf("device time %g outside (0, %g]", rep.GPUPortionSeconds, rep.Seconds)
	}
}

// noGPU wraps a backend hiding its device.
type noGPU struct{ Backend }

func (n noGPU) GPU() LevelExecutor { return nil }

func TestExecutorsRequireGPU(t *testing.T) {
	p := newProbe(2, 4)
	be := noGPU{hpu.MustSim(hpu.HPU1())}
	if _, err := RunBasicHybridCtx(context.Background(), be, p, 2); err == nil {
		t.Error("RunBasicHybrid accepted a CPU-only backend")
	}
	if _, err := RunAdvancedHybridCtx(context.Background(), be, p, 0.5, 2, WithSplit(1)); err == nil {
		t.Error("RunAdvancedHybrid accepted a CPU-only backend")
	}
	if _, err := RunGPUOnlyCtx(context.Background(), be, p); err == nil {
		t.Error("RunGPUOnly accepted a CPU-only backend")
	}
}

func TestDynamicRequiresGPU(t *testing.T) {
	s, _ := mergesort.New(workload.Uniform(1<<8, 1))
	be := noGPU{hpu.MustSim(hpu.HPU1())}
	if _, err := RunDynamicHybridCtx(context.Background(), be, s); !errors.Is(err, dcerr.ErrNoGPU) {
		t.Errorf("RunDynamicHybrid on a CPU-only backend: err = %v, want ErrNoGPU", err)
	}
}

func TestDynamicHybridSortsCorrectly(t *testing.T) {
	for _, logN := range []int{8, 12, 14} {
		in := workload.Uniform(1<<logN, int64(logN))
		s, err := mergesort.New(in)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDynamicHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), s)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int32(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := s.Result()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=2^%d: unsorted at %d", logN, i)
			}
		}
		if rep.Seconds <= 0 {
			t.Errorf("n=2^%d: nonpositive duration", logN)
		}
	}
}

func TestDynamicHybridSum(t *testing.T) {
	in := workload.Uniform(1<<12, 9)
	s, err := dcsum.New(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDynamicHybridCtx(context.Background(), hpu.MustSim(hpu.HPU2()), s); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Result(), dcsum.Sum(in); got != want {
		t.Errorf("dynamic sum = %d, want %d", got, want)
	}
}

// TestStaticBeatsDynamic encodes the paper's §2 argument: for a regular D&C
// tree with known dependencies, the tailored two-transfer static division
// outperforms a per-level dynamic scheme that pays the link cost every
// level.
func TestStaticBeatsDynamic(t *testing.T) {
	in := workload.Uniform(1<<18, 10)
	dynS, _ := mergesort.New(in)
	dyn, err := RunDynamicHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), dynS)
	if err != nil {
		t.Fatal(err)
	}
	advS, _ := mergesort.New(in)
	adv, err := RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), advS, 0.17, 9, WithCoalesce())
	if err != nil {
		t.Fatal(err)
	}
	if adv.Seconds >= dyn.Seconds {
		t.Errorf("advanced static (%.4fs) did not beat dynamic per-level (%.4fs)", adv.Seconds, dyn.Seconds)
	}
}

func TestBasicHybridCrossoverBounds(t *testing.T) {
	p := newProbe(2, 4)
	be := hpu.MustSim(hpu.HPU1())
	if _, err := RunBasicHybridCtx(context.Background(), be, p, -1); err == nil {
		t.Error("accepted negative crossover")
	}
	if _, err := RunBasicHybridCtx(context.Background(), be, p, 5); err == nil {
		t.Error("accepted crossover beyond leaf level")
	}
}

// advParams groups advanced-division parameters for test tables. It
// replaces the deprecated core.AdvancedParams in test code.
type advParams struct {
	Alpha float64
	Y     int
	Split int
}
