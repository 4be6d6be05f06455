package serve_test

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workload"
)

// autoPropertySizes spans the CPU/GPU crossover on HPU1: at 256 elements
// the transfer-free CPU path wins, at 64Ki the device path dominates, and
// the middle sizes land near the §6 break-even region.
var autoPropertySizes = []int{1 << 8, 1 << 12, 1 << 16}

// TestAutoStrategyProperty is the Strategy Auto acceptance property, run for
// 8 seeds × {mergesort, scan, dcsum} × sizes spanning the crossover:
//
//  1. results are bit-identical to the plain-Go ground truth, and
//  2. every decision's chosen strategy prices at or below every rejected
//     strategy under the same calibration (the argmin invariant), verified
//     against the device's calibration via Server.Tuner.
//
// Each seed submits two rounds per (algorithm, size): the first lands on
// the cold-start analytic model, the second on fitted rates — so both the
// fallback and the calibrated path are exercised. Run under -race in CI.
//
// The floor row is the payoff gate, in the simulator's virtual seconds: a
// server warmed by fixed-strategy traffic must sort every size of
// autoFloorSizes under Auto within 1.10x of the best fixed strategy on a
// fresh simulator, and at one size or more 1.5x faster than the worst.
func TestAutoStrategyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			srv, err := serve.New(hpu.MustSim(hpu.HPU1()))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			for round := 0; round < 2; round++ {
				for _, n := range autoPropertySizes {
					data := workload.Uniform(n, rng.Int63())
					checkMergesort(ctx, t, srv, data, serve.Job{Strategy: serve.Auto})
					checkAutoScan(ctx, t, srv, data)
					checkAutoSum(ctx, t, srv, data)
				}
			}
			checkDecisionInvariant(t, srv)
		})
	}

	t.Run("floor", func(t *testing.T) {
		t.Parallel()
		ctx := context.Background()
		// virtual runs one verified mergesort on an idle server and returns
		// how far it advanced the simulator's clock.
		virtual := func(srv *serve.Server, sim *hpu.Sim, data []int32, job serve.Job) float64 {
			before := sim.Now()
			checkMergesort(ctx, t, srv, data, job)
			return sim.Now() - before
		}
		autoSim := hpu.MustSim(hpu.HPU1())
		autoSrv, err := serve.New(autoSim, serve.WithAutoTuner(autotune.NewTuner()))
		if err != nil {
			t.Fatal(err)
		}
		defer autoSrv.Close()

		// Train on every fixed strategy at every size: fitted rates are
		// EWMAs over the phase shapes that actually ran, and the calibrator
		// learns from any metered job, whatever its strategy.
		fixed := map[int][]serve.Job{}
		for _, n := range autoFloorSizes {
			fixed[n] = fixedSortJobs(t, n)
			for round := 0; round < 3; round++ {
				data := workload.Uniform(n, int64(1000*n+round))
				for _, job := range fixed[n] {
					virtual(autoSrv, autoSim, data, job)
				}
			}
		}

		beatsWorst := false
		for _, n := range autoFloorSizes {
			data := workload.Uniform(n, int64(7000+n))
			auto := virtual(autoSrv, autoSim, data, serve.Job{Strategy: serve.Auto})
			best, worst := math.Inf(1), 0.0
			for _, job := range fixed[n] {
				sim := hpu.MustSim(hpu.HPU1())
				srv, err := serve.New(sim)
				if err != nil {
					t.Fatal(err)
				}
				secs := virtual(srv, sim, data, job)
				srv.Close()
				best, worst = min(best, secs), max(worst, secs)
			}
			if auto > 1.10*best {
				t.Errorf("n=%d: auto %gs is %.2fx the best fixed strategy's %gs virtual, over the 1.10x floor",
					n, auto, auto/best, best)
			}
			beatsWorst = beatsWorst || worst >= 1.5*auto
		}
		if !beatsWorst {
			t.Errorf("auto beats the worst fixed strategy by 1.5x at no size of %v", autoFloorSizes)
		}
	})
}

// autoFloorSizes spans the crossover on HPU1 for mergesort: at 2^12 the
// device path drowns in launch and transfer overhead and bf-cpu is best, at
// 2^16 a hybrid division is. Larger sizes only repeat the 2^16 verdict at
// many times the simulation cost.
var autoFloorSizes = []int{1 << 12, 1 << 14, 1 << 16}

// fixedSortJobs returns the four fixed-strategy jobs for a mergesort of n
// elements on HPU1, the hybrids with the paper's offline parameters: the
// crossover minimizing the analytic basic-hybrid time, and the analytic
// model's best (α, y).
func fixedSortJobs(t *testing.T, n int) []serve.Job {
	t.Helper()
	levels := bits.Len(uint(n)) - 1
	pl := hpu.HPU1()
	num, err := model.NewNumeric(2, 2, levels, func(s float64) float64 { return 2 * s }, 0,
		model.Machine{P: pl.CPU.Cores, G: pl.GPU.SatThreads, Gamma: pl.GPU.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	x, best := 0, math.Inf(1)
	for l := 0; l <= levels; l++ {
		if secs, err := num.PredictBasic(l); err == nil && secs < best {
			x, best = l, secs
		}
	}
	alpha, y, _ := num.BestAdvanced(20)
	return []serve.Job{
		{Strategy: serve.BreadthFirstCPU},
		{Strategy: serve.GPUOnly},
		{Strategy: serve.BasicHybrid, Crossover: x},
		{Strategy: serve.AdvancedHybrid, Alpha: alpha, Y: y},
	}
}

// submit runs job to completion on srv; an Auto job must report the strategy
// it was given.
func submit(ctx context.Context, t *testing.T, srv *serve.Server, job serve.Job) core.Report {
	t.Helper()
	h, err := srv.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job.Strategy == serve.Auto && rep.AutoStrategy == "" {
		t.Fatalf("auto job settled without a chosen strategy (report %+v)", rep)
	}
	return rep
}

// checkMergesort sorts data on srv under job's strategy and parameters and
// verifies the result against the plain-Go sort.
func checkMergesort(ctx context.Context, t *testing.T, srv *serve.Server, data []int32, job serve.Job) {
	t.Helper()
	s, err := mergesort.New(data)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	job.Alg = s
	submit(ctx, t, srv, job)
	got := s.Result()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergesort n=%d diverges from ground truth at %d: %d != %d",
				len(data), i, got[i], want[i])
		}
	}
}

func checkAutoScan(ctx context.Context, t *testing.T, srv *serve.Server, data []int32) {
	t.Helper()
	s, err := scan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	submit(ctx, t, srv, serve.Job{Alg: s, Strategy: serve.Auto})
	got := s.Result()
	run := int64(0)
	for i, v := range data {
		run += int64(v)
		if got[i] != run {
			t.Fatalf("scan n=%d diverges from ground truth at %d: %d != %d",
				len(data), i, got[i], run)
		}
	}
}

func checkAutoSum(ctx context.Context, t *testing.T, srv *serve.Server, data []int32) {
	t.Helper()
	s, err := dcsum.New(data)
	if err != nil {
		t.Fatal(err)
	}
	submit(ctx, t, srv, serve.Job{Alg: s, Strategy: serve.Auto})
	want := int64(0)
	for _, v := range data {
		want += int64(v)
	}
	if got := s.Result(); got != want {
		t.Fatalf("dcsum n=%d diverges from ground truth: %d != %d", len(data), got, want)
	}
}

// checkDecisionInvariant prices every (algorithm, size) pair this test
// submitted against the server's single-device calibration — warm by now —
// and asserts the argmin property on the decision the server would make.
func checkDecisionInvariant(t *testing.T, srv *serve.Server) {
	t.Helper()
	for _, n := range autoPropertySizes {
		data := workload.Uniform(n, 1)
		ms, _ := mergesort.New(data)
		sc, _ := scan.New(data)
		su, _ := dcsum.New(data)
		for _, alg := range []core.Alg{ms, sc, su} {
			m := alg.(interface {
				ModelF() func(float64) float64
				ModelLeaf() float64
			})
			galg := alg.(core.GPUAlg)
			sp := autotune.Spec{
				Alg: alg.Name(), N: alg.N(),
				A: alg.Arity(), B: alg.Shrink(), Levels: alg.Levels(),
				F: m.ModelF(), Leaf: m.ModelLeaf(),
				P: 4, G: 4096, Gamma: 1.0 / 160,
				Bytes: galg.GPUBytes(0, 0, 1), HasGPU: true,
			}
			dec, err := srv.Tuner().Decide(0, sp)
			if err != nil {
				t.Fatal(err)
			}
			// Calibrated is not asserted: a bucket where one side always wins
			// never accumulates the losing side's observations, by design. The
			// argmin invariant must hold either way.
			for name, cost := range dec.Costs {
				if cost < dec.Predicted {
					t.Errorf("%s n=%d: rejected %s cost %g beats chosen %s cost %g",
						alg.Name(), n, name, cost, dec.Strategy, dec.Predicted)
				}
			}
		}
	}
}
