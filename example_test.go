package hybriddc_test

import (
	"context"
	"fmt"

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
