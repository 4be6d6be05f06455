package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/fft"
	"repro/internal/algos/karatsuba"
	"repro/internal/algos/matmul"
	"repro/internal/algos/maxsubarray"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/algos/strassen"
	. "repro/internal/core"
	"repro/internal/core/solvetest"
	"repro/internal/hpu"
	"repro/internal/native"
)

// grainCase builds one algorithm instance over fixed data and extracts its
// result as a comparable value. Result values must be bit-identical across
// executions (float algorithms included: coarsening reorders whole tasks,
// never the arithmetic within one, so even rounding is reproduced exactly).
// plain computes the same value from the same data in plain Go, without the
// framework: bit for bit the result's for an integer algorithm, and for a
// float one the same up to rounding, since a plain loop sums in another
// order.
type grainCase struct {
	name  string
	build func(t *testing.T) Alg
	value func(alg Alg) any
	plain func() any
}

func grainCases() []grainCase {
	rng := rand.New(rand.NewSource(7))
	ints := func(n int) []int32 {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(rng.Intn(2001) - 1000)
		}
		return d
	}
	// Sized so that the whole tree as one coarse subtree (grain 2^15 on the
	// breadth-first CPU run) declares more than one cache block of working
	// set: every algorithm then runs CoarseBatch's blocked order, not only
	// its level-by-level one.
	sortData := ints(1 << 14)
	sumData := ints(1 << 14)
	scanData := ints(1 << 14)
	maxData := ints(1 << 14)
	kaA, kaB := ints(1<<11), ints(1<<11)
	fftData := make([]complex128, 1<<12)
	for i := range fftData {
		fftData[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	mmN := 16
	mmA := make([]float64, mmN*mmN)
	mmB := make([]float64, mmN*mmN)
	for i := range mmA {
		mmA[i] = rng.Float64()*2 - 1
		mmB[i] = rng.Float64()*2 - 1
	}
	clone32 := func(d []int32) []int32 { return append([]int32(nil), d...) }
	clone64 := func(d []float64) []float64 { return append([]float64(nil), d...) }
	cloneC := func(d []complex128) []complex128 { return append([]complex128(nil), d...) }

	return []grainCase{
		{"mergesort", func(t *testing.T) Alg {
			a, err := mergesort.New(clone32(sortData))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]int32(nil), alg.(*mergesort.Sorter).Result()...) },
			func() any { return sorted(sortData) }},
		{"mergesort-any", func(t *testing.T) Alg {
			a, err := mergesort.NewAny(clone32(sortData[:10000]))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]int32(nil), alg.(*mergesort.AnySorter).Result()...) },
			func() any { return sorted(sortData[:10000]) }},
		{"dcsum", func(t *testing.T) Alg {
			a, err := dcsum.New(clone32(sumData))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return alg.(*dcsum.Summer).Result() },
			func() any { return dcsum.Sum(sumData) }},
		{"scan", func(t *testing.T) Alg {
			a, err := scan.New(clone32(scanData))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]int64(nil), alg.(*scan.Scanner).Result()...) },
			func() any { return scan.Prefix(scanData) }},
		{"maxsubarray", func(t *testing.T) Alg {
			a, err := maxsubarray.New(clone32(maxData))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return alg.(*maxsubarray.Solver).Result() },
			func() any { return kadane(maxData) }},
		{"karatsuba", func(t *testing.T) Alg {
			a, err := karatsuba.New(clone32(kaA), clone32(kaB))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]int64(nil), alg.(*karatsuba.Multiplier).Result()...) },
			func() any { return schoolbook(kaA, kaB) }},
		{"fft", func(t *testing.T) Alg {
			a, err := fft.New(cloneC(fftData))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]complex128(nil), alg.(*fft.Transform).Result()...) },
			func() any { return dft(fftData) }},
		{"matmul", func(t *testing.T) Alg {
			a, err := matmul.New(clone64(mmA), clone64(mmB), mmN, 3)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]float64(nil), alg.(*matmul.Multiplier).Result()...) },
			func() any { return matmul.Multiply(mmA, mmB, mmN) }},
		{"strassen", func(t *testing.T) Alg {
			a, err := strassen.New(clone64(mmA), clone64(mmB), mmN, 3)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, func(alg Alg) any { return append([]float64(nil), alg.(*strassen.Multiplier).Result()...) },
			func() any { return matmul.Multiply(mmA, mmB, mmN) }},
	}
}

// grainSettings is the matrix the property tests pin: coarsening off, tiny,
// large, the whole CPU portion as one subtree per task, and automatic.
var grainSettings = []struct {
	name  string
	grain int
}{
	{"grain=1", 1},
	{"grain=2", 2},
	{"grain=4", 4},
	{"grain=64", 64},
	{"grain=32768", 1 << 15},
	{"grain=auto", GrainAuto},
}

// TestGrainBitIdentical is the leaf-coarsening property test: for every
// algorithm, every grain setting, and both backends, the breadth-first CPU
// run's result is bit-identical to the sequential baseline.
func TestGrainBitIdentical(t *testing.T) {
	for _, tc := range grainCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.build(t)
			if _, err := RunSequentialCtx(context.Background(), hpu.MustSim(hpu.HPU1()), ref); err != nil {
				t.Fatal(err)
			}
			want := tc.value(ref)

			for _, backend := range []string{"sim", "native"} {
				for _, gs := range grainSettings {
					t.Run(backend+"/"+gs.name, func(t *testing.T) {
						var be Backend
						switch backend {
						case "sim":
							be = hpu.MustSim(hpu.HPU1())
						case "native":
							nb, err := native.New(native.Config{CPUWorkers: 4})
							if err != nil {
								t.Fatal(err)
							}
							defer nb.Close()
							be = nb
						}
						alg := tc.build(t)
						if _, err := RunBreadthFirstCPUCtx(context.Background(), be, alg, WithGrain(gs.grain)); err != nil {
							t.Fatal(err)
						}
						if got := tc.value(alg); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s %s: result differs from sequential baseline", tc.name, backend, gs.name)
						}
					})
				}
			}
		})
	}
}

// multiNative presents the device lanes of several native backends as the
// devices of one MultiGPUBackend: the first backend supplies the CPU, the
// link and device 0, each further one only its device.
type multiNative struct {
	*native.Backend
	gpus []LevelExecutor
}

func (m multiNative) GPUs() []LevelExecutor { return m.gpus }

func newMultiNative(t *testing.T, devices int) multiNative {
	t.Helper()
	var m multiNative
	for d := 0; d < devices; d++ {
		nb, err := native.New(native.Config{CPUWorkers: 4, DeviceLanes: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nb.Close() })
		if d == 0 {
			m.Backend = nb
		}
		m.gpus = append(m.gpus, nb.GPU())
	}
	return m
}

// TestGrainAdvancedHybridBitIdentical pins that grain wired through the
// CPU portion of the advanced hybrid and of its multi-device form (clamped
// at the split level) also preserves results exactly, on both backends, and
// that it is not silently dropped: on the simulator a coarse CPU portion
// finishes at a different virtual time than a level-by-level one.
func TestGrainAdvancedHybridBitIdentical(t *testing.T) {
	build := func(t *testing.T, kind int, data []int32) GPUAlg {
		t.Helper()
		clone := append([]int32(nil), data...)
		switch kind {
		case 0:
			a, err := scan.New(clone)
			if err != nil {
				t.Fatal(err)
			}
			return a
		case 1:
			a, err := dcsum.New(clone)
			if err != nil {
				t.Fatal(err)
			}
			return a
		default:
			a, err := mergesort.New(clone)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	value := func(alg GPUAlg) any {
		switch a := alg.(type) {
		case *scan.Scanner:
			return append([]int64(nil), a.Result()...)
		case *dcsum.Summer:
			return a.Result()
		default:
			return append([]int32(nil), alg.(*mergesort.Sorter).Result()...)
		}
	}
	// Each entry point runs on a simulated and a native platform of its own
	// shape: one device, or two. The advanced rows keep the subtest names
	// they have always had, the multi-device ones get a prefix.
	entries := []struct {
		prefix string
		sim    func(t *testing.T) Backend
		nat    func(t *testing.T) Backend
		run    func(be Backend, alg GPUAlg, y int, opts ...Option) (Report, error)
	}{
		{"",
			func(t *testing.T) Backend { return hpu.MustSim(hpu.HPU1()) },
			func(t *testing.T) Backend { return newMultiNative(t, 1).Backend },
			func(be Backend, alg GPUAlg, y int, opts ...Option) (Report, error) {
				return RunAdvancedHybridCtx(context.Background(), be, alg, 0.25, y, opts...)
			}},
		{"multi-",
			func(t *testing.T) Backend {
				be, err := hpu.NewMultiSim(hpu.HPU1(), 2)
				if err != nil {
					t.Fatal(err)
				}
				return be
			},
			func(t *testing.T) Backend { return newMultiNative(t, 2) },
			func(be Backend, alg GPUAlg, y int, opts ...Option) (Report, error) {
				return RunMultiGPUCtx(context.Background(), be.(MultiGPUBackend), alg, 0.25, y, opts...)
			}},
	}
	// 2^17 elements: a CPU-portion subtree at the default split level (4)
	// declares 64 KiB, two cache blocks.
	rng := rand.New(rand.NewSource(11))
	data := make([]int32, 1<<17)
	for i := range data {
		data[i] = int32(rng.Intn(2001) - 1000)
	}
	names := []string{"scan", "dcsum", "mergesort"}
	for kind := 0; kind < 3; kind++ {
		t.Run(names[kind], func(t *testing.T) {
			ref := build(t, kind, data)
			if _, err := RunSequentialCtx(context.Background(), hpu.MustSim(hpu.HPU1()), ref); err != nil {
				t.Fatal(err)
			}
			want := value(ref)
			y := ref.Levels() - 2
			for _, e := range entries {
				cpuPortion := map[int]float64{} // on the simulator, by grain
				for _, backend := range []string{"sim", "native"} {
					for _, gs := range grainSettings {
						t.Run(e.prefix+backend+"/"+gs.name, func(t *testing.T) {
							be := e.sim(t)
							if backend == "native" {
								be = e.nat(t)
							}
							alg := build(t, kind, data)
							rep, err := e.run(be, alg, y, WithGrain(gs.grain))
							if err != nil {
								t.Fatal(err)
							}
							if got := value(alg); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %s%s %s: result differs from sequential baseline", names[kind], e.prefix, backend, gs.name)
							}
							if backend == "sim" {
								cpuPortion[gs.grain] = rep.CPUPortionSeconds
							}
						})
					}
				}
				for _, g := range []int{64, GrainAuto} {
					if cpuPortion[g] == cpuPortion[1] {
						t.Errorf("%s %ssim: CPUPortionSeconds %g with grain %d and without: the option was dropped",
							names[kind], e.prefix, cpuPortion[g], g)
					}
				}
			}
		})
	}
}

// TestSolveMatchesLevelWalk pins the Solver contract on scan
// (solvetest.MatchesWalk); mergesort and dcsum pin theirs in their own
// packages.
func TestSolveMatchesLevelWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int32, 1<<10)
	for i := range data {
		data[i] = int32(rng.Intn(2001) - 1000)
	}
	solvetest.MatchesWalk(t, func(t *testing.T) Alg {
		s, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Release)
		return s
	}, func(a Alg) [][]int64 {
		s := a.(*scan.Scanner)
		s.Finish() // the walked wrapper hides the executors' hook too
		return [][]int64{s.Result()}
	})
}

// TestSolveAllocs pins what a Solver's coarse task costs on native: a
// GrainAuto run on two workers, its instance built inside the measured
// function, allocates 8 times at 2^14 and at 2^20 for each of the three
// Solvers, on a 2-vCPU x86-64 host. Before native stopped building a
// Solver's level batches to price it, scan's read 21 at 2^14 (its level
// walk 22), and mergesort and dcsum walked their levels.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	nb, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	for _, logn := range []int{14, 20} {
		data := make([]int32, 1<<logn)
		for i := range data {
			data[i] = int32(i%7 - 3)
		}
		for _, c := range []struct {
			name  string
			build func([]int32) (Alg, error)
		}{
			{"mergesort", func(d []int32) (Alg, error) { return mergesort.New(d) }},
			{"scan", func(d []int32) (Alg, error) { return scan.New(d) }},
			{"dcsum", func(d []int32) (Alg, error) { return dcsum.New(d) }},
		} {
			allocs := testing.AllocsPerRun(20, func() {
				alg, err := c.build(data)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := RunBreadthFirstCPUCtx(context.Background(), nb, alg, WithGrain(GrainAuto)); err != nil {
					t.Fatal(err)
				}
				alg.(Releaser).Release()
			})
			if allocs > 8 {
				t.Errorf("a GrainAuto %s run at 2^%d allocated %g times, want at most 8", c.name, logn, allocs)
			}
		}
	}
}
