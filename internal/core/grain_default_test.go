package core_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	. "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hpu"
	"repro/internal/native"
)

// buildCPUAlg builds one of the three served algorithms over n elements.
func buildCPUAlg(t *testing.T, name string, n int) Alg {
	t.Helper()
	data := make([]int32, n)
	for i := range data {
		data[i] = int32((i*7919)%4099 - 2000)
	}
	var alg Alg
	var err error
	switch name {
	case "mergesort":
		alg, err = mergesort.New(data)
	case "scan":
		alg, err = scan.New(data)
	case "dcsum":
		alg, err = dcsum.New(data)
	}
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

// TestBreadthFirstGrainDefault pins where a CPU portion whose caller set no
// grain coarsens: on an autonomous backend (native, and faults over native)
// it submits exactly what an explicit WithGrain(GrainAuto) does, and on the
// simulator exactly what WithGrain(1) does, one batch per level. WithGrain(0)
// and WithGrain(1) run per level everywhere.
func TestBreadthFirstGrainDefault(t *testing.T) {
	ctx := context.Background()
	nb, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	inj, err := faults.New(faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type submit struct {
		level, tasks int
	}
	ops := func(t *testing.T, be Backend, alg Alg, opts ...Option) []submit {
		t.Helper()
		var got []submit
		opts = append(opts, WithIntervals(func(iv Interval) {
			if iv.Unit == UnitCPU {
				got = append(got, submit{iv.Level, iv.Tasks})
			}
		}))
		if _, err := RunBreadthFirstCPUCtx(ctx, be, alg, opts...); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, name := range []string{"mergesort", "scan", "dcsum"} {
		t.Run(name, func(t *testing.T) {
			alg := buildCPUAlg(t, name, 1<<12)
			defer alg.(Releaser).Release()
			// A per-level run submits a batch at every level above the leaves
			// (the leaves and divides of these three have no work); a coarse
			// one submits none below its coarse root.
			perLevel := func(s []submit) bool {
				for l := range alg.Levels() {
					if !slices.ContainsFunc(s, func(b submit) bool { return b.level == l }) {
						return false
					}
				}
				return true
			}
			for _, w := range []struct {
				name       string
				be         Backend
				autonomous bool
			}{
				{"native", nb, true},
				{"faults over native", inj.Wrap(nb), true},
				{"simulator", hpu.MustSim(hpu.HPU1()), false},
			} {
				unset, auto := ops(t, w.be, alg), ops(t, w.be, alg, WithGrain(GrainAuto))
				want := ops(t, w.be, alg, WithGrain(1))
				if !perLevel(want) {
					t.Fatalf("%s: WithGrain(1) submitted %v, want a batch at every level", w.name, want)
				}
				if zero := ops(t, w.be, alg, WithGrain(0)); !slices.Equal(zero, want) {
					t.Errorf("%s: WithGrain(0) submitted %v, want WithGrain(1)'s %v", w.name, zero, want)
				}
				if w.autonomous {
					want = auto
					if perLevel(auto) {
						t.Fatalf("%s: GrainAuto submitted %v, a batch at every level", w.name, auto)
					}
				}
				if !slices.Equal(unset, want) {
					t.Errorf("%s: a run with no grain submitted %v, want %v", w.name, unset, want)
				}
			}
		})
	}
}

// TestBreadthFirstDefaultAllocs pins what a native breadth-first CPU run
// with no grain option, which coarsens at GrainAuto, allocates on two
// workers, measured with testing.AllocsPerRun on a 2-vCPU x86-64 host: 7 at
// every size, since all three algorithms are Solvers and on native a
// Solver's coarse task builds no level batch: what is left is the run's own
// and the levels above the coarse root, which the worker count fixes. The
// per-level
// run measured 16 / 15 / 15 (mergesort / scan / dcsum) at 2^10, 18 / 17 / 17
// at 2^12 and 26 / 25 / 25 at 2^20, and the coarse walk that priced its
// levels 16 / 14 / 15, 18 / 16 / 17 and 26 / 24 / 25.
func TestBreadthFirstDefaultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	nb, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	for _, c := range []struct {
		logn   int
		name   string
		allocs float64
	}{
		{10, "mergesort", 7}, {10, "scan", 7}, {10, "dcsum", 7},
		{12, "mergesort", 7}, {12, "scan", 7}, {12, "dcsum", 7},
		{20, "mergesort", 7}, {20, "scan", 7}, {20, "dcsum", 7},
	} {
		alg := buildCPUAlg(t, c.name, 1<<c.logn)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := RunBreadthFirstCPUCtx(context.Background(), nb, alg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.allocs {
			t.Errorf("%s at 2^%d: %g allocations per run with no grain, want at most %g", c.name, c.logn, allocs, c.allocs)
		}
		alg.(Releaser).Release()
	}
}
