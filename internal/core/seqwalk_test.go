package core_test

import (
	"context"
	"math"
	"math/cmplx"
	"reflect"
	"runtime"
	"slices"
	"testing"

	. "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hpu"
	"repro/internal/native"
)

// TestSequentialWalkMatchesFold pins the sequential baseline's two plans
// against each other. On an autonomous backend — native, and faults.Backend
// over native — the run is one coarse task rooted at level 0, the whole tree
// walked in cache blocks: one CPU interval at level 0. On the simulator every
// level is folded into one task. Every algorithm must leave the same output
// bit for bit under both, and the plain Go result.
func TestSequentialWalkMatchesFold(t *testing.T) {
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
	for _, tc := range grainCases() {
		t.Run(tc.name, func(t *testing.T) {
			folded := tc.build(t)
			levels := 0
			if _, err := RunSequentialCtx(ctx, hpu.MustSim(hpu.HPU1()), folded,
				WithIntervals(func(Interval) { levels++ })); err != nil {
				t.Fatal(err)
			}
			if levels < 2 {
				t.Fatalf("the simulator's sequential run made %d intervals, want one per level that has work", levels)
			}
			want := tc.value(folded)
			if !near(want, tc.plain()) {
				t.Error("the simulator's fold differs from plain Go")
			}
			for _, w := range []struct {
				name string
				be   Backend
			}{{"native", nb}, {"faults over native", inj.Wrap(nb)}} {
				alg := tc.build(t)
				var ivs []Interval
				if _, err := RunSequentialCtx(ctx, w.be, alg,
					WithIntervals(func(iv Interval) { ivs = append(ivs, iv) })); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if got := tc.value(alg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the walk's output differs from the simulator's fold", w.name)
				}
				if len(ivs) != 1 || ivs[0].Unit != UnitCPU || ivs[0].Level != 0 || ivs[0].Tasks != 1 {
					t.Errorf("%s: intervals %+v, want one CPU interval of one task at level 0", w.name, ivs)
				}
			}
		})
	}
}

// TestSequentialAllocs pins what one sequential run allocates on the native
// backend, in count and in bytes (the count with testing.AllocsPerRun, the
// bytes as the least of three rounds), measured on a 2-vCPU x86-64 host.
// All three algorithms are Solvers, and on native a Solver's coarse task
// builds no level batch: a run is its run record, its plan, its one batch's
// body and the body's completion, 4 allocations and 896 bytes whatever the
// depth (at 2^22 a round reads up to 944 now and then). The level walk this
// replaced allocated 24 / 23 / 23 times and 3504 / 2664 / 2672 bytes at
// 2^16, 30 / 29 / 29 and 4368 / 3240 / 3248 at 2^22 (mergesort / scan /
// dcsum), the level-by-level fold's figures, which it stayed under.
func TestSequentialAllocs(t *testing.T) {
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
		bytes  uint64
	}{
		{16, "mergesort", 4, 896},
		{16, "scan", 4, 896},
		{16, "dcsum", 4, 896},
		{22, "mergesort", 4, 1024},
		{22, "scan", 4, 1024},
		{22, "dcsum", 4, 1024},
	} {
		alg := buildCPUAlg(t, c.name, 1<<c.logn)
		run := func() {
			if _, err := RunSequentialCtx(context.Background(), nb, alg); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, run)
		bytes := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			run()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/2)
		}
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s at 2^%d: %g allocations and %d bytes per sequential run, want at most %g and %d",
				c.name, c.logn, allocs, bytes, c.allocs, c.bytes)
		}
		alg.(Releaser).Release()
	}
}

// near reports whether got equals want: bit for bit, or for float results
// within 1e-9 per element of the result's length.
func near(got, want any) bool {
	switch w := want.(type) {
	case []float64:
		g, ok := got.([]float64)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > 1e-9*float64(len(w)) {
				return false
			}
		}
		return true
	case []complex128:
		g, ok := got.([]complex128)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if cmplx.Abs(g[i]-w[i]) > 1e-9*float64(len(w)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(got, want)
}

// sorted is a sorted copy of data.
func sorted(data []int32) []int32 {
	s := slices.Clone(data)
	slices.Sort(s)
	return s
}

// kadane is the plain maximum subarray sum.
func kadane(data []int32) int64 {
	best, cur := int64(data[0]), int64(data[0])
	for _, v := range data[1:] {
		cur = max(cur+int64(v), int64(v))
		best = max(best, cur)
	}
	return best
}

// schoolbook is the plain 2n-coefficient product of two n-coefficient
// polynomials.
func schoolbook(a, b []int32) []int64 {
	out := make([]int64, 2*len(a))
	for i, x := range a {
		for j, y := range b {
			out[i+j] += int64(x) * int64(y)
		}
	}
	return out
}

// dft is the plain quadratic discrete Fourier transform.
func dft(x []complex128) []complex128 {
	n := len(x)
	twiddle := make([]complex128, n)
	for k := range twiddle {
		twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	out := make([]complex128, n)
	for k := range out {
		for j, v := range x {
			out[k] += v * twiddle[k*j%n]
		}
	}
	return out
}
