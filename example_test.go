package hybriddc_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/workload"
)

// ExamplePlanAdvanced reproduces the paper's §5.2.2 example: for mergesort
// on HPU1 with n = 2^24, the model chooses α ≈ 0.16 and transfer level ≈ 10.
func ExamplePlanAdvanced() {
	s, _ := hybriddc.NewMergesort(make([]int32, 1<<24))
	alpha, y := hybriddc.PlanAdvanced(hybriddc.MustSim(hybriddc.HPU1()), s)
	fmt.Printf("alpha=%.2f y=%d\n", alpha, y)
	// Output: alpha=0.16 y=9
}

// ExampleRunAdvancedHybridCtx sorts with the §5.2 advanced work division on
// the simulated HPU1 and verifies the result.
func ExampleRunAdvancedHybridCtx() {
	in := workload.Uniform(1<<16, 1)
	s, _ := hybriddc.NewMergesort(in)
	be := hybriddc.MustSim(hybriddc.HPU1())
	rep, err := hybriddc.RunAdvancedHybridCtx(context.Background(), be, s, 0.17, 8,
		hybriddc.WithCoalesce())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(rep.Strategy, workload.IsSorted(s.Result()))
	// Output: advanced-hybrid true
}

// ExampleWithGrain scans on the native backend with leaf coarsening: under
// GrainAuto each CPU worker gets several coarse tasks, each solving a whole
// subtree, and the result is the plain prefix sum.
func ExampleWithGrain() {
	be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer be.Close()
	data := make([]int32, 1<<12)
	for i := range data {
		data[i] = int32(i%5 - 2)
	}
	s, _ := hybriddc.NewScan(data)
	defer s.Release()
	rep, err := hybriddc.RunBreadthFirstCPUCtx(context.Background(), be, s,
		hybriddc.WithGrain(hybriddc.GrainAuto))
	if err != nil {
		fmt.Println(err)
		return
	}
	sums := s.Result()
	fmt.Println(rep.Strategy, sums[:6], sums[len(sums)-1])
	// Output: bf-cpu [-2 -3 -3 -2 0 -2] -2
}

// ExampleEstimatePlatform recovers the Table 2 parameters of HPU1 through
// the paper's §6.4 estimation procedures.
func ExampleEstimatePlatform() {
	res, _ := hybriddc.EstimatePlatform(hybriddc.HPU1())
	fmt.Printf("p=%d g=%d 1/gamma=%.0f\n", res.P, res.G, res.GammaInv)
	// Output: p=4 g=4096 1/gamma=160
}

// ExampleBasicCrossover computes the §5.1 level at which execution moves to
// the GPU: ⌈log2(p/γ)⌉ = ⌈log2(640)⌉ = 10 on HPU1.
func ExampleBasicCrossover() {
	x, ok := hybriddc.BasicCrossover(2, hybriddc.MachineOf(hybriddc.MustSim(hybriddc.HPU1())))
	fmt.Println(x, ok)
	// Output: 10 true
}

// ExampleNewServerPool serves concurrent GPU-bound jobs over a two-device
// pool: load-aware placement spreads the jobs across the devices while
// every result stays bit-identical to a single-device run.
func ExampleNewServerPool() {
	pool := []hybriddc.Backend{
		hybriddc.MustSim(hybriddc.HPU1()),
		hybriddc.MustSim(hybriddc.HPU1()),
	}
	srv, err := hybriddc.NewServerPool(pool)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()

	var handles []*hybriddc.JobHandle
	var sorted []func() bool
	for i := 0; i < 4; i++ {
		s, _ := hybriddc.NewMergesort(workload.Uniform(1<<12, int64(i+1)))
		h, err := srv.Submit(context.Background(), hybriddc.JobSpec{
			Alg: s, Strategy: hybriddc.JobAdvancedHybrid, Alpha: 0.17, Y: 6,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		handles = append(handles, h)
		sorted = append(sorted, func() bool { return workload.IsSorted(s.Result()) })
	}
	ok := true
	for i, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil || !sorted[i]() {
			ok = false
		}
	}
	fmt.Println(len(srv.Stats().Devices), ok)
	// Output: 2 true
}

// ExampleNewSum runs the paper's §4.3 divide-and-conquer sum.
func ExampleNewSum() {
	s, _ := hybriddc.NewSum([]int32{3, 1, 4, 1, 5, 9, 2, 6})
	hybriddc.RunBreadthFirstCPUCtx(context.Background(), hybriddc.MustSim(hybriddc.HPU2()), s)
	fmt.Println(s.Result())
	// Output: 31
}

// ExampleNewAutoTuner restarts a server warm. The first server starts from
// the analytic model, which picks advanced-hybrid for a 2^12 sort, until its
// measurements show bf-cpu is faster. Its tuner is persisted with
// MarshalJSON, and the next server installs the restored copy with
// WithAutoTuner: its first job already runs bf-cpu.
func ExampleNewAutoTuner() {
	serveAuto := func(tuner *hybriddc.AutoTuner, jobs int) []string {
		srv, err := hybriddc.NewServer(hybriddc.MustSim(hybriddc.HPU1()), hybriddc.WithAutoTuner(tuner))
		if err != nil {
			return []string{err.Error()}
		}
		defer srv.Close()
		var strategies []string
		for i := 0; i < jobs; i++ {
			s, _ := hybriddc.NewMergesort(workload.Uniform(1<<12, int64(i+1)))
			h, err := srv.Submit(context.Background(), hybriddc.JobSpec{Alg: s, Strategy: hybriddc.JobAuto})
			if err != nil {
				return append(strategies, err.Error())
			}
			rep, err := h.Wait(context.Background())
			if err != nil {
				return append(strategies, err.Error())
			}
			strategies = append(strategies, rep.Strategy)
		}
		return strategies
	}
	tuner := hybriddc.NewAutoTuner()
	fmt.Println("first boot:", serveAuto(tuner, 4))
	saved, _ := tuner.MarshalJSON()
	restored, err := hybriddc.LoadAutoTuner(saved)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("second boot:", serveAuto(restored, 1))
	// Output:
	// first boot: [advanced-hybrid advanced-hybrid advanced-hybrid bf-cpu]
	// second boot: [bf-cpu]
}

// ExampleRunMultiGPUCtx sorts with the advanced division over two
// simulated devices of HPU1: the GPU share of the tree is split between
// them.
func ExampleRunMultiGPUCtx() {
	be, err := hybriddc.NewMultiSim(hybriddc.HPU1(), 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, _ := hybriddc.NewMergesort(workload.Uniform(1<<16, 1))
	rep, err := hybriddc.RunMultiGPUCtx(context.Background(), be, s, 0.17, 8, hybriddc.WithCoalesce())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(rep.Strategy, workload.IsSorted(s.Result()))
	// Output: advanced-2gpu true
}

// ExampleWithSplit pins the advanced division's split level instead of
// deriving it with DefaultSplit; the result is the same sort.
func ExampleWithSplit() {
	be := hybriddc.MustSim(hybriddc.HPU1())
	for _, split := range []int{-1, 2} {
		s, _ := hybriddc.NewMergesort(workload.Uniform(1<<16, 1))
		rep, err := hybriddc.RunAdvancedHybridCtx(context.Background(), be, s, 0.17, 8,
			hybriddc.WithSplit(split))
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("split %d: %s %v %.6fs\n", split, rep.Strategy, workload.IsSorted(s.Result()), rep.Seconds)
	}
	// Output:
	// split -1: advanced-hybrid true 0.002466s
	// split 2: advanced-hybrid true 0.002392s
}

// ExampleWithDeadline bounds a served job's execution budget: a job that
// fits it succeeds, and a job whose budget has run out before its first
// level boundary fails with ErrCanceled.
func ExampleWithDeadline() {
	srv, err := hybriddc.NewServer(hybriddc.MustSim(hybriddc.HPU1()))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()
	for _, budget := range []time.Duration{time.Minute, time.Nanosecond} {
		s, _ := hybriddc.NewMergesort(workload.Uniform(1<<12, 1))
		h, err := srv.Submit(context.Background(), hybriddc.JobSpec{
			Alg: s, Strategy: hybriddc.JobBreadthFirstCPU,
			Opts: []hybriddc.Option{hybriddc.WithDeadline(budget)},
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		_, err = h.Wait(context.Background())
		fmt.Printf("%v: ok=%v canceled=%v\n", budget, err == nil, errors.Is(err, hybriddc.ErrCanceled))
	}
	// Output:
	// 1m0s: ok=true canceled=false
	// 1ns: ok=false canceled=true
}

// ExampleServer_AddBackend grows a running server's pool by one device; the
// new device is eligible for placement at once.
func ExampleServer_AddBackend() {
	srv, err := hybriddc.NewServer(hybriddc.MustSim(hybriddc.HPU1()))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()
	id, err := srv.AddBackend(hybriddc.MustSim(hybriddc.HPU2()))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("device", id, "of", len(srv.Stats().Devices))
	// Output: device 1 of 2
}

// ExampleNewInverseFFT round-trips a signal through the forward and the
// inverse transform on the simulator.
func ExampleNewInverseFFT() {
	be := hybriddc.MustSim(hybriddc.HPU1())
	signal := []complex128{1, 2, 3, 4, 0, 0, 0, 0}
	fwd, _ := hybriddc.NewFFT(signal)
	if _, err := hybriddc.RunBreadthFirstCPUCtx(context.Background(), be, fwd); err != nil {
		fmt.Println(err)
		return
	}
	inv, _ := hybriddc.NewInverseFFT(fwd.Result())
	if _, err := hybriddc.RunGPUOnlyCtx(context.Background(), be, inv); err != nil {
		fmt.Println(err)
		return
	}
	for _, v := range inv.Result() {
		fmt.Printf("%.0f ", real(v))
	}
	fmt.Println()
	// Output: 1 2 3 4 0 0 0 0
}
