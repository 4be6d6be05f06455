package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algos/karatsuba"
	"repro/internal/algos/mergesort"
	. "repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/native"
)

// countedCombines counts the calls of its combine bodies. It embeds the
// bare Alg, hiding the Sorter's Solve, so that a coarse task walks the
// levels it counts.
type countedCombines struct {
	Alg
	calls *atomic.Int32
}

func (c countedCombines) CombineBatch(level, lo, hi int) Batch {
	b := c.Alg.CombineBatch(level, lo, hi)
	body := b
	b.Run, b.RunRange = nil, func(lo, hi int) {
		c.calls.Add(1)
		body.Each(lo, hi)
	}
	return b
}

// TestHostSplitMatchesWhole pins that the host split is invisible: with
// every batch forced to split (threshold 0) into three ranges, whose
// boundaries fall where no level's task count is aligned to, every
// algorithm under every executor, with coalescing on and off, leaves the
// same output bit for bit as with no batch split, the same reports and the
// same stream of intervals — the virtual clock must not see the host.
// Mergesort's layout switch, whose body does its whole region in the range
// holding task 0, is walked in both directions at mid levels. Beforehand,
// the split itself: ranges that partition the batch, and the simulated
// units and the simulator's fold splitting while the native sequential walk
// does not.
func TestHostSplitMatchesWhole(t *testing.T) {
	const ranges = 3
	t.Run("ranges", func(t *testing.T) {
		defer SetHostSplit(0, ranges)()
		for _, tasks := range []int{1, 2, 3, 7, 100} {
			var mu sync.Mutex
			var got [][2]int
			EachSplit(Batch{Tasks: tasks, RunRange: func(lo, hi int) {
				mu.Lock()
				got = append(got, [2]int{lo, hi})
				mu.Unlock()
			}})
			covered := make([]int, tasks)
			for _, r := range got {
				for i := r[0]; i < r[1]; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("%d tasks: task %d ran %d times over ranges %v", tasks, i, c, got)
				}
			}
			if len(got) != min(ranges, tasks) {
				t.Errorf("%d tasks: %d ranges %v, want %d", tasks, len(got), got, min(ranges, tasks))
			}
		}
		calls := 0
		restore := SetHostSplit(1e9, ranges)
		EachSplit(Batch{Tasks: 100, Cost: Cost{Ops: 1}, RunRange: func(lo, hi int) { calls++ }})
		restore()
		if calls != 1 {
			t.Errorf("a batch below the threshold ran as %d ranges, want 1", calls)
		}
	})

	// The simulated units and the simulator's fold reach the split; the
	// native sequential walk, the baseline that native-direct times, runs
	// each level's phase as one call.
	t.Run("submit", func(t *testing.T) {
		defer SetHostSplit(0, ranges)()
		var calls atomic.Int32
		counted := Batch{Tasks: 7, Cost: Cost{Ops: 1}, RunRange: func(lo, hi int) { calls.Add(1) }}
		sim := hpu.MustSim(hpu.HPU1())
		for _, u := range []LevelExecutor{sim.CPU(), sim.GPU()} {
			calls.Store(0)
			u.Submit(counted, nil)
			sim.Wait()
			if calls.Load() != ranges {
				t.Errorf("a simulated Submit ran its batch as %d calls, want %d", calls.Load(), ranges)
			}
		}
		nb, err := native.New(native.Config{CPUWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer nb.Close()
		// 2^6 elements: combines of 32, 16, 8, 4, 2 and 1 tasks.
		for _, c := range []struct {
			be        Backend
			want      int32
			onBackend string
		}{{hpu.MustSim(hpu.HPU1()), 4*ranges + 2 + 1, "simulator"}, {nb, 6, "native backend"}} {
			s, err := mergesort.New(make([]int32, 1<<6))
			if err != nil {
				t.Fatal(err)
			}
			calls.Store(0)
			alg := countedCombines{s, &calls}
			if _, err := RunSequentialCtx(context.Background(), c.be, alg); err != nil {
				t.Fatal(err)
			}
			if calls.Load() != c.want {
				t.Errorf("the sequential run on the %s ran the combines as %d calls, want %d", c.onBackend, calls.Load(), c.want)
			}
		}
	})

	type outcome struct {
		value     []any
		reports   []Report
		intervals []Interval
		err       string
	}
	// run executes one variant under the current split setting.
	run := func(t *testing.T, tc grainCase, entry string, coalesce bool) outcome {
		var o outcome
		opts := []Option{WithIntervals(func(iv Interval) { o.intervals = append(o.intervals, iv) })}
		if coalesce {
			opts = append(opts, WithCoalesce())
		}
		ctx := context.Background()
		alg := tc.build(t).(GPUAlg)
		L := alg.Levels()
		var rep Report
		var err error
		switch entry {
		case "seq":
			rep, err = RunSequentialCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, opts...)
		case "bf-cpu":
			rep, err = RunBreadthFirstCPUCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, opts...)
		case "bf-cpu-auto":
			rep, err = RunBreadthFirstCPUCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, append(opts, WithGrain(GrainAuto))...)
		case "gpu-only":
			rep, err = RunGPUOnlyCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, opts...)
		case "basic":
			rep, err = RunBasicHybridCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, L/2, opts...)
		case "advanced":
			rep, err = RunAdvancedHybridCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, 0.25, max(L-2, 0), opts...)
		case "multi-gpu":
			be, merr := hpu.NewMultiSim(hpu.HPU1(), 2)
			if merr != nil {
				t.Fatal(merr)
			}
			rep, err = RunMultiGPUCtx(ctx, be, alg, 0.25, max(L-2, 0), opts...)
		case "dynamic":
			rep, err = RunDynamicHybridCtx(ctx, hpu.MustSim(hpu.HPU1()), alg, opts...)
		case "fused":
			other := tc.build(t).(GPUAlg)
			reps, ferr := RunFusedGPUCtx(ctx, hpu.MustSim(hpu.HPU1()), []GPUAlg{alg, other}, opts...)
			if ferr == nil {
				o.value = append(o.value, tc.value(other))
			}
			o.reports, err = reps, ferr
		default:
			t.Fatalf("unknown entry %q", entry)
		}
		if err != nil {
			o.err = err.Error()
			return o
		}
		if entry != "fused" {
			o.reports = []Report{rep}
		}
		o.value = append([]any{tc.value(alg)}, o.value...)
		return o
	}
	entries := []string{"seq", "bf-cpu", "bf-cpu-auto", "gpu-only", "basic", "advanced", "multi-gpu", "dynamic", "fused"}
	for _, tc := range grainCases() {
		if tc.name == "karatsuba" {
			// Θ(n^1.58) work: at the grain cases' 2^11 digits this row
			// alone takes seconds under -race; every batch still splits at
			// 2^8.
			tc.build = func(t *testing.T) Alg {
				a, b := make([]int32, 1<<8), make([]int32, 1<<8)
				for i := range a {
					a[i], b[i] = int32(i%19-9), int32(i%23-11)
				}
				alg, err := karatsuba.New(a, b)
				if err != nil {
					t.Fatal(err)
				}
				return alg
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, entry := range entries {
				for _, coalesce := range []bool{false, true} {
					name := fmt.Sprintf("%s co=%v", entry, coalesce)
					restore := SetHostSplit(math.Inf(1), 0)
					want := run(t, tc, entry, coalesce)
					restore()
					restore = SetHostSplit(0, ranges)
					got := run(t, tc, entry, coalesce)
					restore()
					if got.err != want.err {
						t.Fatalf("%s: error %q split, %q whole", name, got.err, want.err)
					}
					if !reflect.DeepEqual(got.value, want.value) {
						t.Errorf("%s: output differs when the host splits batches", name)
					}
					if !reflect.DeepEqual(got.reports, want.reports) {
						t.Errorf("%s: reports %+v split, %+v whole", name, got.reports, want.reports)
					}
					if !reflect.DeepEqual(got.intervals, want.intervals) {
						t.Errorf("%s: the interval stream differs when the host splits batches (%d vs %d intervals)",
							name, len(got.intervals), len(want.intervals))
					}
				}
			}
		})
	}

	// The layout switch at mid levels: CPU merges up to level m, the switch
	// into the interleaved layout there, device merges up to y, the switch
	// back, and CPU merges to the root — each batch through EachSplit.
	t.Run("mergesort-layout-switch", func(t *testing.T) {
		data := make([]int32, 1<<12)
		for i := range data {
			data[i] = int32((i*7919)%4099 - 2000)
		}
		sortWalk := func(split bool) []int32 {
			s, err := mergesort.New(append([]int32(nil), data...))
			if err != nil {
				t.Fatal(err)
			}
			restore := SetHostSplit(math.Inf(1), 0)
			if split {
				restore()
				restore = SetHostSplit(0, ranges)
			}
			defer restore()
			L, m, y := s.Levels(), 8, 3
			EachSplit(s.BaseBatch(0, 1<<L))
			for l := L - 1; l >= m; l-- {
				EachSplit(s.CombineBatch(l, 0, 1<<l))
			}
			if b := s.PermuteForGPU(m, 0, 1<<m); b.Tasks != len(data) {
				t.Fatalf("the switch at level %d moves %d elements, want %d", m, b.Tasks, len(data))
			} else {
				EachSplit(b)
			}
			for l := m - 1; l >= y; l-- {
				EachSplit(s.GPUCombineBatch(l, 0, 1<<l))
			}
			if b := s.PermuteBack(y, 0, 1<<y); b.Tasks != len(data) {
				t.Fatalf("the switch back at level %d moves %d elements, want %d", y, b.Tasks, len(data))
			} else {
				EachSplit(b)
			}
			for l := y - 1; l >= 0; l-- {
				EachSplit(s.CombineBatch(l, 0, 1<<l))
			}
			s.Finish()
			return append([]int32(nil), s.Result()...)
		}
		want := sortWalk(false)
		for i := 1; i < len(want); i++ {
			if want[i-1] > want[i] {
				t.Fatalf("the unsplit walk is not sorted at %d", i)
			}
		}
		if got := sortWalk(true); !reflect.DeepEqual(got, want) {
			t.Error("the layout switch leaves different data when the host splits it")
		}
	})
}

// TestHostSplitAllocs pins what the host split costs in allocations: a
// simulated Submit of a batch below the threshold allocates as much as one
// of a cost-only batch (running the body inline adds nothing) and no more
// than before the split existed (18 on the CPU; 4 on the device then, one
// of them RequestFixed's closure, since removed), and a split one at most
// one more per extra range (the goroutine's closure).
func TestHostSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	data := make([]int32, 1<<10)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	sim := hpu.MustSim(hpu.HPU1())
	submit := func(u LevelExecutor, b Batch) float64 {
		return testing.AllocsPerRun(50, func() {
			u.Submit(b, nil)
			sim.Wait()
		})
	}
	small := Batch{Tasks: len(data), Cost: Cost{Ops: 1}}
	const ranges = 3
	for _, unit := range []struct {
		name   string
		u      LevelExecutor
		before float64
	}{{"cpu", sim.CPU(), 18}, {"gpu", sim.GPU(), 3}} {
		costOnly := submit(unit.u, small)
		withBody := small
		withBody.RunRange = body
		if got := submit(unit.u, withBody); got != costOnly || got > unit.before {
			t.Errorf("%s: a Submit below the threshold allocated %g times, a cost-only one %g, want at most %g",
				unit.name, got, costOnly, unit.before)
		}
		restore := SetHostSplit(0, ranges)
		split := submit(unit.u, withBody)
		restore()
		if split > costOnly+ranges-1 {
			t.Errorf("%s: a Submit split into %d ranges allocated %g times, want at most %g", unit.name, ranges, split, costOnly+ranges-1)
		}
	}
}
