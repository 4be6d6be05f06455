package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// walked hides an algorithm's Solve, so CoarseBatch walks its levels.
type walked struct{ Alg }

// TestSolveMatchesLevelWalk pins the Solver contract on scan: for every
// coarse root level and a whole, a single and a random range of subtrees,
// the direct coarse batch has the walked one's Tasks, Cost and Level and
// leaves the same data. A Solve that carried its running sum from one
// subtree into the next would differ on every whole range below the root.
// The native subtest runs whole breadth-first runs, whose coarse tasks
// solve disjoint subtrees concurrently.
func TestSolveMatchesLevelWalk(t *testing.T) {
	const L = 10
	rng := rand.New(rand.NewSource(5))
	data := make([]int32, 1<<L)
	for i := range data {
		data[i] = int32(rng.Intn(2001) - 1000)
	}
	build := func(t *testing.T) *scan.Scanner {
		s, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Release)
		return s
	}
	result := func(s *scan.Scanner) []int64 {
		s.Finish() // the walked wrapper hides the executors' hook too
		return s.Result()
	}
	for cl := 0; cl <= L; cl++ {
		w := TasksAtLevel(2, cl)
		one := rng.Intn(w)
		lo := rng.Intn(w)
		hi := lo + 1 + rng.Intn(w-lo)
		for _, r := range []struct {
			name   string
			lo, hi int
		}{{"whole", 0, w}, {"single", one, one + 1}, {"random", lo, hi}} {
			t.Run(fmt.Sprintf("cl=%d/%s", cl, r.name), func(t *testing.T) {
				direct, walk := build(t), build(t)
				db := CoarseBatch(direct, cl, r.lo, r.hi, nil)
				wb := CoarseBatch(walked{walk}, cl, r.lo, r.hi, nil)
				if db.Tasks != wb.Tasks || db.Cost != wb.Cost || db.Level != wb.Level {
					t.Fatalf("direct batch {%d %+v %d}, walked {%d %+v %d}",
						db.Tasks, db.Cost, db.Level, wb.Tasks, wb.Cost, wb.Level)
				}
				db.Each(0, db.Tasks)
				wb.Each(0, wb.Tasks)
				if got, want := result(direct), result(walk); !slices.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("subtrees [%d, %d) of level %d: slot %d = %d solved, %d walked",
						r.lo, r.hi, cl, i, got[i], want[i])
				}
			})
		}
	}
	t.Run("native", func(t *testing.T) {
		nb, err := native.New(native.Config{CPUWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer nb.Close()
		want := scan.Prefix(data)
		for _, g := range []int{2, 16, 64, GrainAuto} {
			direct, walk := build(t), build(t)
			for _, alg := range []Alg{direct, walked{walk}} {
				if _, err := RunBreadthFirstCPUCtx(context.Background(), nb, alg, WithGrain(g)); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(direct.Result(), want) || !slices.Equal(result(walk), want) {
				t.Fatalf("grain %d: a native run differs from the prefix sums", g)
			}
		}
	})
}

// TestSolveAllocs pins what Solve saves in allocations: a native GrainAuto
// scan run builds no phases slice, one allocation fewer than the level walk
// (22 at 2^14 on two workers).
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	nb, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	data := make([]int32, 1<<14)
	for i := range data {
		data[i] = int32(i%7 - 3)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunBreadthFirstCPUCtx(context.Background(), nb, s, WithGrain(GrainAuto)); err != nil {
			t.Fatal(err)
		}
		s.Release()
	})
	if allocs > 21 {
		t.Errorf("a GrainAuto scan run allocated %g times, want at most 21", allocs)
	}
}
