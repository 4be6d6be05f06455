package autotune_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/autotune"
	"repro/internal/dcerr"
	"repro/internal/metrics"
	"repro/internal/model"
)

// testSpec builds a mergesort-shaped pricing spec (f(s)=2s, leaf 0, binary
// recurrence) for n elements on an HPU1-like machine.
func testSpec(n int, hasGPU bool) autotune.Spec {
	levels := 0
	for s := n; s > 1; s >>= 1 {
		levels++
	}
	return autotune.Spec{
		Alg: "mergesort", N: n,
		A: 2, B: 2, Levels: levels,
		F:    func(s float64) float64 { return 2 * s },
		Leaf: 0,
		P:    4, G: 4096, Gamma: 1.0 / 160,
		Bytes: int64(4 * n), HasGPU: hasGPU,
	}
}

func TestSizeClass(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
	} {
		if got := autotune.SizeClass(tc.n); got != tc.want {
			t.Errorf("SizeClass(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestColdStartMatchesAnalytic pins the fallback rule: with no observations
// the decision is uncalibrated and its bf-cpu price is exactly the paper's
// analytic §5 prediction (tcpu = 1, no link term).
func TestColdStartMatchesAnalytic(t *testing.T) {
	c := autotune.NewCalibration(0, 0)
	sp := testSpec(1<<12, true)
	dec, err := c.Decide(sp)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Calibrated {
		t.Fatal("cold-start decision reported calibrated")
	}
	num, err := model.NewNumeric(sp.A, sp.B, sp.Levels, sp.F, sp.Leaf,
		model.Machine{P: sp.P, G: sp.G, Gamma: sp.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Costs[autotune.ChoiceCPU], num.PredictBreadthFirstCPU(); got != want {
		t.Errorf("cold-start bf-cpu cost %g, want analytic %g", got, want)
	}
	if got, want := dec.Costs[autotune.ChoiceGPUOnly], num.PredictGPUOnly(); got != want {
		t.Errorf("cold-start gpu-only cost %g, want analytic %g (no link term)", got, want)
	}
}

// TestDecisionArgmin is the pricing invariant: for random calibration
// states, the chosen strategy's cost is the minimum over every priced
// strategy, and Predicted equals that cost.
func TestDecisionArgmin(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := autotune.NewCalibration(0, 0)
		sp := testSpec(1<<uint(8+rng.Intn(10)), true)
		for i := 0; i < 2+rng.Intn(10); i++ {
			c.Observe(autotune.Observation{
				Alg: sp.Alg, N: sp.N,
				ModelCPUUnits: 1 + rng.Float64(), CPUSeconds: 0.5 + rng.Float64(),
				ModelGPUUnits: 1 + rng.Float64(), GPUSeconds: 0.5 + rng.Float64(),
				TransferBytes: int64(1 + rng.Intn(1<<20)), TransferSeconds: rng.Float64() / 100,
				Transfers: 1 + rng.Intn(4),
				Seconds:   1,
			})
		}
		dec, err := c.Decide(sp)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Costs[dec.Strategy] != dec.Predicted {
			t.Fatalf("seed %d: Predicted %g != Costs[%s] %g",
				seed, dec.Predicted, dec.Strategy, dec.Costs[dec.Strategy])
		}
		for name, cost := range dec.Costs {
			if cost < dec.Predicted {
				t.Errorf("seed %d: rejected %s cost %g beats chosen %s cost %g",
					seed, name, cost, dec.Strategy, dec.Predicted)
			}
		}
	}
}

// TestCalibrationShiftsDecision drives the rates far enough apart that the
// calibrated argmin flips away from the analytic choice: a GPU measured
// 1000x slower than modeled must push the decision to the CPU path.
func TestCalibrationShiftsDecision(t *testing.T) {
	c := autotune.NewCalibration(2, 0.5)
	sp := testSpec(1<<14, true)
	cold, err := c.Decide(sp)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Strategy == autotune.ChoiceCPU {
		t.Skip("analytic model already prefers CPU at this size; pick a larger N")
	}
	for i := 0; i < 4; i++ {
		c.Observe(autotune.Observation{
			Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: 100, CPUSeconds: 100, // tcpu = 1
			ModelGPUUnits: 100, GPUSeconds: 100_000, // tgpu = 1000
			Seconds: 1,
		})
	}
	warm, err := c.Decide(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Calibrated {
		t.Fatal("decision still uncalibrated after minObs observations on both sides")
	}
	if warm.Strategy != autotune.ChoiceCPU {
		t.Errorf("with a 1000x-slow GPU the argmin is %s, want %s (costs %v)",
			warm.Strategy, autotune.ChoiceCPU, warm.Costs)
	}
}

// TestLinkFitRecovers pins the decayed least-squares transfer model: samples
// drawn from seconds = λ + δ·bytes must recover λ and δ closely enough that
// the gpu-only price carries the round-trip link term.
func TestLinkFitRecovers(t *testing.T) {
	const lambda, delta = 6e-5, 1.0 / 3e9
	c := autotune.NewCalibration(2, 0.5)
	sp := testSpec(1<<16, true)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		bytes := int64(1<<12 + rng.Intn(1<<22))
		c.Observe(autotune.Observation{
			Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: 100, CPUSeconds: 100,
			ModelGPUUnits: 100, GPUSeconds: 100,
			TransferBytes: bytes, TransferSeconds: lambda + delta*float64(bytes),
			Transfers: 1, Seconds: 1,
		})
	}
	dec, err := c.Decide(sp)
	if err != nil {
		t.Fatal(err)
	}
	num, err := model.NewNumeric(sp.A, sp.B, sp.Levels, sp.F, sp.Leaf,
		model.Machine{P: sp.P, G: sp.G, Gamma: sp.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	// tgpu fitted to 1, so the gpu-only price is analytic + 2(λ+δB).
	want := num.PredictGPUOnly() + 2*(lambda+delta*float64(sp.Bytes))
	got := dec.Costs[autotune.ChoiceGPUOnly]
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("gpu-only price %g, want %g ±5%% (link fit off)", got, want)
	}
}

// TestMarshalLoadRoundTrip pins the persistence format: a restored
// calibration reproduces the original's decision exactly, including the
// calibrated flag — the warm-restart contract.
func TestMarshalLoadRoundTrip(t *testing.T) {
	c := autotune.NewCalibration(2, 0.6)
	sp := testSpec(1<<12, true)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		c.Observe(autotune.Observation{
			Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: 1 + rng.Float64(), CPUSeconds: 1 + rng.Float64(),
			ModelGPUUnits: 1 + rng.Float64(), GPUSeconds: 1 + rng.Float64(),
			TransferBytes: int64(1 << 16), TransferSeconds: 1e-4,
			Transfers: 2, Seconds: 1, PredictedSeconds: 1.1,
		})
	}
	raw, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := autotune.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := c.Decide(sp)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c2.Decide(sp)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Strategy != d2.Strategy || d1.Calibrated != d2.Calibrated ||
		d1.Predicted != d2.Predicted {
		t.Fatalf("round trip changed the decision: %+v vs %+v", d1, d2)
	}
	for name, cost := range d1.Costs {
		if d2.Costs[name] != cost {
			t.Errorf("round trip changed %s cost: %g vs %g", name, cost, d2.Costs[name])
		}
	}
	if got, want := c2.RMSE(), c.RMSE(); got != want {
		t.Errorf("round trip changed RMSE: %g vs %g", got, want)
	}
	if _, err := autotune.Load([]byte(`{"version":9}`)); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("unknown version error %v, want ErrBadParam", err)
	}
}

// TestTunerPerDeviceAndMetrics pins the per-device isolation (calibrating
// device 0 leaves device 1 cold) and the metric plumbing.
func TestTunerPerDeviceAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	tn := autotune.NewTuner(autotune.WithMinObservations(2), autotune.WithDecay(0.5))
	tn.AttachMetrics(reg)
	sp := testSpec(1<<12, true)
	for i := 0; i < 4; i++ {
		tn.Observe(0, autotune.Observation{
			Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: 1, CPUSeconds: 1,
			ModelGPUUnits: 1, GPUSeconds: 1,
			Seconds: 1,
		})
	}
	d0, err := tn.Decide(0, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Calibrated {
		t.Error("device 0 still cold after 4 observations")
	}
	d1, err := tn.Decide(1, sp)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Calibrated {
		t.Error("device 1 calibrated without any observation (state leaked across devices)")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[autotune.MetricRefits]; got != 4 {
		t.Errorf("%s = %d, want 4", autotune.MetricRefits, got)
	}

	raw, err := tn.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := autotune.LoadTuner(raw)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := tn2.Decide(0, sp)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Strategy != d0.Strategy || r0.Calibrated != d0.Calibrated {
		t.Errorf("tuner round trip changed device 0 decision: %+v vs %+v", r0, d0)
	}
}

// TestUnitsForRejectsUnknown pins the error taxonomy.
func TestUnitsForRejectsUnknown(t *testing.T) {
	if _, _, err := autotune.NewCalibration(0, 0).UnitsFor(testSpec(1<<10, true), "warp-drive", 0, 0, 0); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("unknown strategy error %v, want ErrBadParam", err)
	}
}
