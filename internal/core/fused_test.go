package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	. "repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/hpu"
	"repro/internal/native"
)

// fusedMember pairs an instance wired into a fused run with an identical
// instance run independently, plus a checker comparing their results.
type fusedMember struct {
	fused GPUAlg
	ref   GPUAlg
	check func(t *testing.T, tag string)
}

func randomData(rng *rand.Rand, n int) []int32 {
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(rng.Intn(2001) - 1000)
	}
	return d
}

func newFusedMember(t *testing.T, rng *rand.Rand, kind, n int) fusedMember {
	t.Helper()
	data := randomData(rng, n)
	clone := func() []int32 { return append([]int32(nil), data...) }
	switch kind {
	case 0:
		a, err := scan.New(clone())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := scan.New(clone())
		return fusedMember{a, b, func(t *testing.T, tag string) {
			got, want := a.Result(), b.Result()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: scan n=%d: result[%d] = %d, want %d", tag, n, i, got[i], want[i])
				}
			}
		}}
	case 1:
		a, err := dcsum.New(clone())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := dcsum.New(clone())
		return fusedMember{a, b, func(t *testing.T, tag string) {
			if got, want := a.Result(), b.Result(); got != want {
				t.Fatalf("%s: dcsum n=%d: result = %d, want %d", tag, n, got, want)
			}
		}}
	default:
		a, err := mergesort.New(clone())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := mergesort.New(clone())
		return fusedMember{a, b, func(t *testing.T, tag string) {
			got, want := a.Result(), b.Result()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: mergesort n=%d: result[%d] = %d, want %d", tag, n, i, got[i], want[i])
				}
			}
		}}
	}
}

// TestFusedMatchesIndependentRuns is the fusion correctness property test:
// over random mixes of algorithm kinds, sizes, and member counts, a fused
// run's per-member results are bit-identical to N independent RunGPUOnlyCtx
// runs, with and without the coalescing layout switch.
func TestFusedMatchesIndependentRuns(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := 1 + rng.Intn(6)
			coalesce := seed%2 == 1
			members := make([]fusedMember, k)
			algs := make([]GPUAlg, k)
			for i := range members {
				members[i] = newFusedMember(t, rng, rng.Intn(3), 1<<(2+rng.Intn(8)))
				algs[i] = members[i].fused
			}
			var opts []Option
			if coalesce {
				opts = append(opts, WithCoalesce())
			}

			reps, err := RunFusedGPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), algs, opts...)
			if err != nil {
				t.Fatalf("fused run: %v", err)
			}
			if len(reps) != k {
				t.Fatalf("got %d reports, want %d", len(reps), k)
			}
			for i, m := range members {
				if _, err := RunGPUOnlyCtx(context.Background(), hpu.MustSim(hpu.HPU1()), m.ref, opts...); err != nil {
					t.Fatalf("reference run %d: %v", i, err)
				}
			}
			tag := fmt.Sprintf("seed=%d coalesce=%v", seed, coalesce)
			for i, m := range members {
				m.check(t, tag)
				r := reps[i]
				if r.Strategy != FusedStrategy {
					t.Errorf("%s: member %d strategy = %q, want %q", tag, i, r.Strategy, FusedStrategy)
				}
				if r.Partial {
					t.Errorf("%s: member %d unexpectedly partial", tag, i)
				}
				if r.Seconds <= 0 {
					t.Errorf("%s: member %d Seconds = %v, want > 0", tag, i, r.Seconds)
				}
				if r.GPUPortionSeconds <= 0 || r.GPUPortionSeconds > r.Seconds {
					t.Errorf("%s: member %d GPUPortionSeconds = %v out of (0, %v]",
						tag, i, r.GPUPortionSeconds, r.Seconds)
				}
			}
		})
	}
}

// TestFusedNativeBackend runs a mixed fused batch on the real-goroutine
// backend, where completions arrive from many goroutines, and checks
// results against independent runs on the same backend.
func TestFusedNativeBackend(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	rng := rand.New(rand.NewSource(42))
	members := make([]fusedMember, 4)
	algs := make([]GPUAlg, len(members))
	for i := range members {
		members[i] = newFusedMember(t, rng, i%3, 1<<(3+i))
		algs[i] = members[i].fused
	}
	reps, err := RunFusedGPUCtx(context.Background(), be, algs)
	if err != nil {
		t.Fatalf("fused run: %v", err)
	}
	for i, m := range members {
		if _, err := RunGPUOnlyCtx(context.Background(), be, m.ref); err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		m.check(t, "native")
		if reps[i].Partial {
			t.Errorf("member %d unexpectedly partial", i)
		}
	}
}

// TestFusedSingleMember checks that a fused run degenerates cleanly to one
// member (the fusion-declined path serve falls back to).
func TestFusedSingleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newFusedMember(t, rng, 2, 256)
	reps, err := RunFusedGPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), []GPUAlg{m.fused})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGPUOnlyCtx(context.Background(), hpu.MustSim(hpu.HPU1()), m.ref); err != nil {
		t.Fatal(err)
	}
	m.check(t, "single")
	if len(reps) != 1 || reps[0].Strategy != FusedStrategy {
		t.Fatalf("reports = %+v, want one %s report", reps, FusedStrategy)
	}
}

// TestFusedCancellation cancels a fused run before it starts and from a
// hook inside a member's batch, asserting every member settles Partial with
// an error unwrapping dcerr.ErrCanceled and no goroutines leak.
func TestFusedCancellation(t *testing.T) {
	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		algs := []GPUAlg{newCancelAlg(4), newCancelAlg(3)}
		reps, err := RunFusedGPUCtx(ctx, hpu.MustSim(hpu.HPU1()), algs)
		if !errors.Is(err, dcerr.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		for i, r := range reps {
			if !r.Partial {
				t.Errorf("member %d not partial after cancellation", i)
			}
		}
	})
	t.Run("mid-run-native", func(t *testing.T) {
		base := runtime.NumGoroutine()
		be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 2})
		if err != nil {
			t.Fatal(err)
		}
		// A group of depths 5, 4 and 2 — two chunk chains, the combine chain
		// and three egress chains, ending on arbitrary goroutines — canceled
		// from inside each kind of device batch: on the way down, at the
		// leaves, in the first and a late combine step, and in the last one,
		// when two groups are already on their way home.
		for _, at := range []struct {
			phase string
			level int
		}{
			{"gpu-divide", 1}, {"gpu-base", -1}, {"gpu-combine", 4}, {"gpu-combine", 3}, {"gpu-combine", 0},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			a := newCancelAlg(5)
			a.hook = func(phase string, level int) {
				if phase == at.phase && level == at.level {
					cancel()
				}
			}
			reps, err := RunFusedGPUCtx(ctx, be, []GPUAlg{a, newCancelAlg(4), newCancelAlg(2)})
			cancel()
			if !errors.Is(err, dcerr.ErrCanceled) {
				t.Fatalf("canceled in %s@%d: err = %v, want ErrCanceled", at.phase, at.level, err)
			}
			for i, r := range reps {
				if !r.Partial {
					t.Errorf("canceled in %s@%d: member %d not partial", at.phase, at.level, i)
				}
			}
			if st := be.Segments().Stats(); st.LeasedBytes != 0 {
				t.Errorf("canceled in %s@%d: %d bytes still leased", at.phase, at.level, st.LeasedBytes)
			}
		}
		be.Close()
		waitGoroutines(t, base)
	})
}

// TestFusedValidation pins the constructor-grade error taxonomy of the
// fused entry point.
func TestFusedValidation(t *testing.T) {
	sim := hpu.MustSim(hpu.HPU1())
	if _, err := RunFusedGPUCtx(context.Background(), sim, nil); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("empty member list: err = %v, want ErrBadParam", err)
	}
	if _, err := RunFusedGPUCtx(context.Background(), sim, []GPUAlg{newProbe(2, 3), nil}); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("nil member: err = %v, want ErrBadParam", err)
	}
	cpuOnly, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cpuOnly.Close()
	if _, err := RunFusedGPUCtx(context.Background(), cpuOnly, []GPUAlg{newProbe(2, 3)}); !errors.Is(err, dcerr.ErrNoGPU) {
		t.Errorf("no GPU: err = %v, want ErrNoGPU", err)
	}
}

// TestFusedAmortizesLaunches pins the point of fusion on the simulated
// clock: k equal small jobs fused take far less virtual time than k
// independent runs back-to-back, because each recursion level costs one
// kernel launch instead of k and the link latency is paid per chunk, not
// per job.
func TestFusedAmortizesLaunches(t *testing.T) {
	const k, n = 16, 1024
	rng := rand.New(rand.NewSource(3))

	fusedSim := hpu.MustSim(hpu.HPU1())
	algs := make([]GPUAlg, k)
	members := make([]fusedMember, k)
	for i := range algs {
		members[i] = newFusedMember(t, rng, 0, n)
		algs[i] = members[i].fused
	}
	if _, err := RunFusedGPUCtx(context.Background(), fusedSim, algs); err != nil {
		t.Fatal(err)
	}
	fused := fusedSim.Now()

	soloSim := hpu.MustSim(hpu.HPU1())
	for _, m := range members {
		if _, err := RunGPUOnlyCtx(context.Background(), soloSim, m.ref); err != nil {
			t.Fatal(err)
		}
	}
	solo := soloSim.Now()

	if fused*1.5 > solo {
		t.Errorf("fused makespan %v not ≥1.5× better than %v for %d jobs of n=%d",
			fused, solo, k, n)
	}
}

// finishProbe is a scan that counts its Finish calls.
type finishProbe struct {
	*scan.Scanner
	finished *int
}

func (p finishProbe) Finish() { *p.finished++ }

// TestFusedDeviceFault: a fused run settles like every other run, so a
// device fault recorded by a Faulter layer beneath it is the run's error.
// With every kernel launch failing, no member's data was touched: the error
// classifies under ErrDeviceFault, every report is Partial, no member is
// finished and every leased segment has been given back.
func TestFusedDeviceFault(t *testing.T) {
	inj, err := faults.New(faults.Config{KernelErrorRate: 1, TriggerSpan: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim := hpu.MustSim(hpu.HPU1())
	be := inj.Wrap(sim)
	rng := rand.New(rand.NewSource(11))
	finished := 0
	algs := make([]GPUAlg, 4)
	for i := range algs {
		s, err := scan.New(randomData(rng, 1<<(6+i%2)))
		if err != nil {
			t.Fatal(err)
		}
		algs[i] = finishProbe{s, &finished}
	}
	reps, err := RunFusedGPUCtx(context.Background(), be, algs)
	if be.Fault() == nil {
		t.Fatal("the injector recorded no fault")
	}
	if !errors.Is(err, dcerr.ErrDeviceFault) {
		t.Errorf("err = %v, want ErrDeviceFault", err)
	}
	for i, r := range reps {
		if !r.Partial {
			t.Errorf("member %d not partial after a device fault", i)
		}
	}
	if finished != 0 {
		t.Errorf("%d members finished after a device fault", finished)
	}
	st := sim.SimGPU().Segments().Stats()
	if st.LeasedBytes != 0 || st.Allocs+st.Reuses != uint64(len(algs)) {
		t.Errorf("segments after the run: %+v; want %d leases, all given back", st, len(algs))
	}
}
