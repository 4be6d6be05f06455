package mergesort

import (
	"context"

	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/workload"
)

func reference(a []int32) []int32 {
	out := append([]int32(nil), a...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSortReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1023, 4096} {
		in := workload.Uniform(n, int64(n)+1)
		got := append([]int32(nil), in...)
		Sort(got)
		if !equal(got, reference(in)) {
			t.Errorf("Sort(n=%d) incorrect", n)
		}
	}
}

func TestSortBreadthFirst(t *testing.T) {
	for _, n := range []int{2, 4, 64, 1024, 1 << 14} {
		in := workload.Uniform(n, int64(n)+7)
		got := append([]int32(nil), in...)
		SortBreadthFirst(got)
		if !equal(got, reference(in)) {
			t.Errorf("SortBreadthFirst(n=%d) incorrect", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SortBreadthFirst accepted non-power-of-two length")
		}
	}()
	SortBreadthFirst(make([]int32, 3))
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 1000} {
		if _, err := New(make([]int32, n)); err == nil {
			t.Errorf("New accepted length %d", n)
		}
	}
	if _, err := New(make([]int32, 8)); err != nil {
		t.Errorf("New rejected length 8: %v", err)
	}
}

func TestMergeInterleaved(t *testing.T) {
	// Two runs of 4, interleaved: runs {1,3,5,7} and {2,4,6,8}.
	// Interleaved layout (count=2): [1,2, 3,4, 5,6, 7,8] by j-major order.
	src := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]int32, 8)
	mergeInterleaved(dst, src, 0, 2, 4, 0, 1)
	// Output: 1 run of 8 with count/2 = 1 → contiguous sorted.
	want := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	if !equal(dst, want) {
		t.Errorf("mergeInterleaved = %v, want %v", dst, want)
	}

	// Four runs of 2: {5,9},{1,4},{3,3},{0,8} interleaved with count=4:
	// j=0: 5,1,3,0 ; j=1: 9,4,3,8.
	src = []int32{5, 1, 3, 0, 9, 4, 3, 8}
	dst = make([]int32, 8)
	mergeInterleaved(dst, src, 0, 4, 2, 0, 1) // runs 0,1 → out run 0
	mergeInterleaved(dst, src, 0, 4, 2, 1, 2) // runs 2,3 → out run 1
	// Output layout: 2 runs of 4 interleaved (outCount=2):
	// run0 = {1,4,5,9}, run1 = {0,3,3,8} → [1,0, 4,3, 5,3, 9,8].
	want = []int32{1, 0, 4, 3, 5, 3, 9, 8}
	if !equal(dst, want) {
		t.Errorf("mergeInterleaved 4-run = %v, want %v", dst, want)
	}
}

// runAll exercises one input through every executor and checks the result.
func checkSorted(t *testing.T, name string, s *Sorter, in []int32) {
	t.Helper()
	if !equal(s.Result(), reference(in)) {
		t.Errorf("%s: result not sorted correctly (n=%d)", name, len(in))
	}
}

func TestSequentialExecutor(t *testing.T) {
	in := workload.Uniform(1<<12, 42)
	be := hpu.MustSim(hpu.HPU1())
	s, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunSequentialCtx(context.Background(), be, s)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "sequential", s, in)
	if rep.Seconds <= 0 {
		t.Errorf("sequential: nonpositive duration %g", rep.Seconds)
	}
}

func TestBreadthFirstCPUExecutor(t *testing.T) {
	in := workload.Uniform(1<<12, 43)
	be := hpu.MustSim(hpu.HPU1())
	s, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunBreadthFirstCPUCtx(context.Background(), be, s)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "bf-cpu", s, in)
	if rep.Seconds <= 0 {
		t.Errorf("bf-cpu: nonpositive duration %g", rep.Seconds)
	}
}

func TestBasicHybridExecutor(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		for _, crossover := range []int{0, 5, 10, 12} {
			in := workload.Uniform(1<<12, int64(100+crossover))
			be := hpu.MustSim(hpu.HPU1())
			s, err := New(in)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.RunBasicHybridCtx(context.Background(), be, s, crossover, coalesceOpts(coalesce)...)
			if err != nil {
				t.Fatalf("basic(x=%d,coalesce=%v): %v", crossover, coalesce, err)
			}
			checkSorted(t, "basic-hybrid", s, in)
			if rep.Seconds <= 0 {
				t.Errorf("basic: nonpositive duration %g", rep.Seconds)
			}
		}
	}
}

func TestAdvancedHybridExecutor(t *testing.T) {
	cases := []struct {
		alpha float64
		y     int
	}{
		{0.16, 6}, {0.16, 9}, {0.3, 8}, {0.05, 4}, {0.5, 10}, {0.0, 5}, {1.0, 8},
	}
	for _, coalesce := range []bool{false, true} {
		for _, c := range cases {
			in := workload.Uniform(1<<12, int64(1000+c.y))
			be := hpu.MustSim(hpu.HPU1())
			s, err := New(in)
			if err != nil {
				t.Fatal(err)
			}
			prm := advParams{Alpha: c.alpha, Y: c.y, Split: -1}
			rep, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y,
				append(coalesceOpts(coalesce), core.WithSplit(prm.Split))...)
			if err != nil {
				t.Fatalf("advanced(α=%g,y=%d,coalesce=%v): %v", c.alpha, c.y, coalesce, err)
			}
			checkSorted(t, "advanced-hybrid", s, in)
			if rep.Seconds <= 0 {
				t.Errorf("advanced: nonpositive duration %g", rep.Seconds)
			}
		}
	}
}

func TestAdvancedHybridExplicitSplits(t *testing.T) {
	for _, split := range []int{0, 1, 3, 5} {
		in := workload.Uniform(1<<10, int64(split))
		be := hpu.MustSim(hpu.HPU2())
		s, err := New(in)
		if err != nil {
			t.Fatal(err)
		}
		prm := advParams{Alpha: 0.25, Y: 5, Split: split}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithCoalesce(), core.WithSplit(prm.Split)); err != nil {
			t.Fatalf("split=%d: %v", split, err)
		}
		checkSorted(t, "advanced-split", s, in)
	}
}

func TestAdvancedHybridRejectsBadParams(t *testing.T) {
	in := workload.Uniform(1<<10, 5)
	be := hpu.MustSim(hpu.HPU1())
	s, _ := New(in)
	bad := []advParams{
		{Alpha: -0.1, Y: 5, Split: 0},
		{Alpha: 1.1, Y: 5, Split: 0},
		{Alpha: 0.5, Y: 99, Split: 0},
		{Alpha: 0.5, Y: 3, Split: 4},
	}
	for _, prm := range bad {
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err == nil {
			t.Errorf("accepted bad params %+v", prm)
		}
	}
}

func TestGPUOnlyParallel(t *testing.T) {
	in := workload.Uniform(1<<12, 77)
	be := hpu.MustSim(hpu.HPU1())
	s, err := NewParallel(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunGPUOnlyCtx(context.Background(), be, s)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "gpu-only", s.Sorter, in)
	if rep.GPUPortionSeconds <= 0 || rep.GPUPortionSeconds > rep.Seconds {
		t.Errorf("gpu-only: device time %g outside (0, total=%g]",
			rep.GPUPortionSeconds, rep.Seconds)
	}
}

func TestParallelSorterDuplicatesStable(t *testing.T) {
	// All-equal and few-distinct inputs stress the binary-search ranking:
	// every element must land on a distinct output slot.
	for _, in := range [][]int32{
		workload.FewDistinct(1<<10, 3, 9),
		make([]int32, 1<<10), // all zeros
	} {
		be := hpu.MustSim(hpu.HPU1())
		s, err := NewParallel(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunGPUOnlyCtx(context.Background(), be, s); err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "gpu-only-dups", s.Sorter, in)
	}
}

func TestHybridSpeedupOverSequential(t *testing.T) {
	// On the simulated HPU1, the advanced hybrid with near-optimal
	// parameters must beat the single-core baseline substantially.
	n := 1 << 16
	in := workload.Uniform(n, 1)

	seqBe := hpu.MustSim(hpu.HPU1())
	seqS, _ := New(in)
	seqRep, err := core.RunSequentialCtx(context.Background(), seqBe, seqS)
	if err != nil {
		t.Fatal(err)
	}

	hyBe := hpu.MustSim(hpu.HPU1())
	hyS, _ := New(in)
	rep, err := core.RunAdvancedHybridCtx(context.Background(), hyBe, hyS, 0.16, 8, core.WithCoalesce())
	if err != nil {
		t.Fatal(err)
	}
	speedup := seqRep.Seconds / rep.Seconds
	if speedup < 2 {
		t.Errorf("advanced hybrid speedup = %.2f, want > 2", speedup)
	}
}

func TestCoalescingHelps(t *testing.T) {
	// The §6.3 transformation should make the device phase cheaper: run
	// the basic hybrid (all-GPU below the crossover) with and without it.
	n := 1 << 16
	in := workload.Uniform(n, 2)

	run := func(coalesce bool) float64 {
		be := hpu.MustSim(hpu.HPU1())
		s, _ := New(in)
		rep, err := core.RunBasicHybridCtx(context.Background(), be, s, 10, coalesceOpts(coalesce)...)
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "coalesce-check", s, in)
		return rep.Seconds
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("coalescing did not help: with=%g without=%g", with, without)
	}
}

func TestHybridQuick(t *testing.T) {
	// Property: for random inputs, sizes and parameters, the advanced
	// hybrid produces exactly the reference sort.
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64, sizePow uint8, alphaRaw uint16, yRaw, coalesce uint8) bool {
		logN := 4 + int(sizePow%8) // n in [2^4, 2^11]
		n := 1 << logN
		alpha := float64(alphaRaw) / 65535
		y := int(yRaw) % (logN + 1)
		in := workload.Uniform(n, seed)
		be := hpu.MustSim(hpu.HPU1())
		s, err := New(in)
		if err != nil {
			return false
		}
		prm := advParams{Alpha: alpha, Y: y, Split: -1}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y,
			append(coalesceOpts(coalesce%2 == 0), core.WithSplit(prm.Split))...); err != nil {
			return false
		}
		return equal(s.Result(), reference(in))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestResultBeforeRunPanics(t *testing.T) {
	s, _ := New(make([]int32, 8))
	defer func() {
		if recover() == nil {
			t.Error("Result() before execution did not panic")
		}
	}()
	_ = s.Result()
}

// advParams groups advanced-division parameters for test tables. It
// replaces the deprecated core.AdvancedParams in test code.
type advParams struct {
	Alpha float64
	Y     int
	Split int
}

// coalesceOpts returns the coalescing option when on, for table-driven
// tests that toggle it.
func coalesceOpts(on bool) []core.Option {
	if on {
		return []core.Option{core.WithCoalesce()}
	}
	return nil
}
