package autotune_test

// Tests for the price-table / re-rate split of Calibration.Decide: the table
// is built once per job shape, every decision equals a reference that prices
// straight from model.Numeric, and a decision never depends on which other
// shapes the calibration priced before.

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/autotune"
	"repro/internal/model"
)

// algSpecs are the eight algorithms' model shapes (Arity, Shrink, ModelF,
// ModelLeaf as internal/algos exports them) at a given depth.
func algSpecs(levels int) []autotune.Spec {
	n := 1 << uint(levels)
	leaf := 2.5 * 8 * 8 * 8 // an 8x8 leaf block product
	shapes := []struct {
		alg  string
		a    int
		f    func(float64) float64
		leaf float64
	}{
		{"mergesort", 2, func(s float64) float64 { return 2 * s }, 0},
		{"scan", 2, func(s float64) float64 { return 1.5 * s }, 0},
		{"dcsum", 2, func(float64) float64 { return 2.5 }, 0},
		{"maxsubarray", 2, func(float64) float64 { return 16 }, 6.5},
		{"fft", 2, func(s float64) float64 { return 9 * s }, 0},
		{"karatsuba", 3, func(s float64) float64 { return 10 * s }, 2.5},
		{"strassen", 7, func(s float64) float64 { return 11.5 * s * s }, leaf},
		{"matmul", 8, func(s float64) float64 { return 6.5 * s * s }, leaf},
	}
	out := make([]autotune.Spec, len(shapes))
	for i, sh := range shapes {
		out[i] = autotune.Spec{Alg: sh.alg, N: n, A: sh.a, B: 2, Levels: levels,
			F: sh.f, Leaf: sh.leaf, P: 4, G: 4096, Gamma: 1.0 / 160,
			Bytes: int64(4 * n), HasGPU: true}
	}
	return out
}

// referenceDecide is Decide as it was before the table: every candidate
// priced from model.Numeric with the rates applied inline. Tests compare the
// table-driven Decide against it with ==.
func referenceDecide(t *testing.T, sp autotune.Spec, tcpu, tgpu, lambda, delta float64) autotune.Decision {
	t.Helper()
	g, gamma := sp.G, sp.Gamma
	if !sp.HasGPU {
		g, gamma = 1, 0.5
	}
	num, err := model.NewNumeric(sp.A, sp.B, sp.Levels, sp.F, sp.Leaf, model.Machine{P: sp.P, G: g, Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	dec := autotune.Decision{Costs: map[string]float64{}}
	best := math.Inf(1)
	consider := func(name string, cost float64, crossover int, alpha float64, y int) {
		if prev, ok := dec.Costs[name]; !ok || cost < prev {
			dec.Costs[name] = cost
		}
		if cost < best {
			best = cost
			dec.Strategy, dec.Predicted = name, cost
			dec.Crossover, dec.Alpha, dec.Y = crossover, alpha, y
		}
	}
	consider(autotune.ChoiceCPU, tcpu*num.PredictBreadthFirstCPU(), 0, 0, 0)
	if !sp.HasGPU {
		return dec
	}
	link := func(bytes float64) float64 {
		if bytes <= 0 {
			return 0
		}
		return 2 * (lambda + delta*bytes)
	}
	consider(autotune.ChoiceGPUOnly, tgpu*num.PredictGPUOnly()+link(float64(sp.Bytes)), 0, 0, 0)
	for x := 0; x <= sp.Levels; x++ {
		cpu, gpu, err := num.PredictBasicParts(x)
		if err != nil {
			continue
		}
		consider(autotune.ChoiceBasic, tcpu*cpu+tgpu*gpu+link(float64(sp.Bytes)), x, 0, 0)
	}
	for y := 0; y <= sp.Levels; y++ {
		for i := 1; i < 20; i++ {
			a := float64(i) / 20
			pr, err := num.PredictAdvanced(a, y, num.DefaultSplit(a, y))
			if err != nil {
				continue
			}
			gb := (1 - a) * float64(sp.Bytes)
			cost := math.Max(tcpu*pr.CPUPhase, tgpu*pr.GPUPhase+link(gb)) + tcpu*pr.Tail
			consider(autotune.ChoiceAdvanced, cost, 0, a, y)
		}
	}
	return dec
}

// sameDecision compares every priced field with ==.
func sameDecision(t *testing.T, what string, got, want autotune.Decision) {
	t.Helper()
	if got.Strategy != want.Strategy || got.Crossover != want.Crossover ||
		got.Alpha != want.Alpha || got.Y != want.Y || got.Predicted != want.Predicted {
		t.Errorf("%s: decided %s x=%d α=%g y=%d at %g, want %s x=%d α=%g y=%d at %g", what,
			got.Strategy, got.Crossover, got.Alpha, got.Y, got.Predicted,
			want.Strategy, want.Crossover, want.Alpha, want.Y, want.Predicted)
	}
	if len(got.Costs) != len(want.Costs) {
		t.Errorf("%s: priced %v, want %v", what, got.Costs, want.Costs)
	}
	for name, cost := range want.Costs {
		if got.Costs[name] != cost {
			t.Errorf("%s: %s cost %g, want %g", what, name, got.Costs[name], cost)
		}
	}
}

// TestDecideEqualsReference is the equivalence gate of the table/re-rate
// split: for seeded random rates and link fits, over the eight algorithms'
// shapes with and without the device path, the decision is the reference's.
func TestDecideEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, levels := range []int{3, 6, 10} {
		for _, sp := range algSpecs(levels) {
			for round := 0; round < 4; round++ {
				sp.HasGPU = round != 3
				tcpu, tgpu := math.Exp(6*rng.Float64()-12), math.Exp(6*rng.Float64()-12)
				delta := math.Exp(4*rng.Float64() - 22)
				lambda := 1e-4 * rng.Float64()
				// One observation per side fixes the EWMA rates at the samples;
				// two transfer sizes on the line fix the link fit.
				c := autotune.NewCalibration(1, 0.5)
				c.Observe(autotune.Observation{Alg: sp.Alg, N: sp.N,
					ModelCPUUnits: 1, CPUSeconds: tcpu, ModelGPUUnits: 1, GPUSeconds: tgpu,
					TransferBytes: 1 << 12, TransferSeconds: lambda + delta*(1<<12), Transfers: 1})
				c.Observe(autotune.Observation{Alg: "link-only", N: sp.N,
					TransferBytes: 1 << 20, TransferSeconds: lambda + delta*(1<<20), Transfers: 1})
				fitL, fitD := linkOf(t, c)
				got, err := c.Decide(sp)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Calibrated {
					t.Fatalf("%s L=%d: uncalibrated after an observation on each side", sp.Alg, levels)
				}
				sameDecision(t, sp.Alg, got, referenceDecide(t, sp, tcpu, tgpu, fitL, fitD))
			}
			// Cold start: the analytic model, no link term.
			sp.HasGPU = true
			cold, err := autotune.NewCalibration(0, 0).Decide(sp)
			if err != nil {
				t.Fatal(err)
			}
			sameDecision(t, sp.Alg+" cold", cold, referenceDecide(t, sp, 1, 1, 0, 0))
		}
	}
}

// linkOf reads the fitted λ and δ back through the persisted form.
func linkOf(t *testing.T, c *autotune.Calibration) (lambda, delta float64) {
	t.Helper()
	var st struct {
		Link struct {
			Lambda float64 `json:"lambda"`
			Delta  float64 `json:"delta"`
		} `json:"link"`
	}
	raw, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.Link.Lambda, st.Link.Delta
}

// warm returns a calibration fitted for sp's bucket and a link.
func warm(sp autotune.Spec) *autotune.Calibration {
	c := autotune.NewCalibration(2, 0.5)
	for i := 0; i < 4; i++ {
		c.Observe(autotune.Observation{Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: 100, CPUSeconds: 1e-4, ModelGPUUnits: 100, GPUSeconds: 3e-6,
			TransferBytes: int64(1<<12 + i<<14), TransferSeconds: 6e-5 + float64(i)*1e-5,
			Transfers: 1})
	}
	return c
}

// TestDecideIndependentOfHistory: a decision is a function of the job and the
// fitted state alone — never of which shapes the calibration priced before.
// The first row is the parent's bug: mergesort-any at n=3000 (12 levels) and
// n=2048 (11 levels) share size class 11, and the (algorithm, size-class)
// decision cache answered the second with the first's decision.
func TestDecideIndependentOfHistory(t *testing.T) {
	anySpec := func(n, levels int) autotune.Spec {
		sp := testSpec(1<<uint(levels), true)
		sp.Alg, sp.N, sp.Bytes = "mergesort-any", n, int64(4*n)
		return sp
	}
	with := func(sp autotune.Spec, edit func(*autotune.Spec)) autotune.Spec {
		edit(&sp)
		return sp
	}
	base := testSpec(1<<12, true)
	for _, tc := range []struct {
		name   string
		before autotune.Spec
		job    autotune.Spec
	}{
		{"two depths in one size class", anySpec(3000, 12), anySpec(2048, 11)},
		{"same depth, fewer bytes", anySpec(4000, 12), anySpec(2100, 12)},
		{"cpu-restricted then full device", with(base, func(s *autotune.Spec) { s.HasGPU = false }), base},
		{"another machine triple", with(base, func(s *autotune.Spec) { s.P, s.G = 8, 512 }), base},
		{"another leaf cost", with(base, func(s *autotune.Spec) { s.Leaf = 3 }), base},
	} {
		for _, fitted := range []bool{false, true} {
			history, fresh := autotune.NewCalibration(0, 0), autotune.NewCalibration(0, 0)
			if fitted {
				history, fresh = warm(tc.job), warm(tc.job)
			}
			if _, err := history.Decide(tc.before); err != nil {
				t.Fatal(err)
			}
			got, err := history.Decide(tc.job)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Decide(tc.job)
			if err != nil {
				t.Fatal(err)
			}
			if got.Calibrated != fitted {
				t.Errorf("%s: Calibrated = %v, want %v", tc.name, got.Calibrated, fitted)
			}
			sameDecision(t, tc.name, got, want)
		}
	}
}

// TestRefitDoesNotRepriceTheModel: after a shape's first Decide, refits and
// further decisions (and the unit lookups the serving layer makes per
// completion) never evaluate the cost function again.
func TestRefitDoesNotRepriceTheModel(t *testing.T) {
	sp := testSpec(1<<12, true)
	calls := 0
	f := sp.F
	sp.F = func(s float64) float64 { calls++; return f(s) }
	c := autotune.NewCalibration(0, 0)
	if _, err := c.Decide(sp); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("the first Decide priced nothing")
	}
	built := calls
	var last autotune.Decision
	for i := 0; i < 100; i++ {
		cpu, gpu, err := c.UnitsFor(sp, autotune.ChoiceAdvanced, 0, 0.37, 5)
		if err != nil {
			t.Fatal(err)
		}
		c.Observe(autotune.Observation{Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: cpu, CPUSeconds: 1e-3 * float64(1+i%7),
			ModelGPUUnits: gpu, GPUSeconds: 2e-3 * float64(1+i%5),
			TransferBytes: sp.Bytes, TransferSeconds: 1e-4, Transfers: 2})
		dec, err := c.Decide(sp)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && dec.Calibrated && dec.Predicted == last.Predicted {
			t.Fatalf("round %d: the refit did not reach the decision (%g again)", i, dec.Predicted)
		}
		last = dec
	}
	if got := calls - built; got != 0 {
		t.Errorf("100 Observe→Decide rounds made %d further cost-function calls, want 0", got)
	}
}

// TestLoadedTunerDecidesLikeLive: a persisted-then-loaded tuner has no price
// tables yet and must rebuild them to the same decisions.
func TestLoadedTunerDecidesLikeLive(t *testing.T) {
	live := autotune.NewTuner()
	specs := algSpecs(8)
	rng := rand.New(rand.NewSource(5))
	for _, sp := range specs {
		for i := 0; i < 3; i++ {
			live.Observe(0, autotune.Observation{Alg: sp.Alg, N: sp.N,
				ModelCPUUnits: 50, CPUSeconds: 1e-4 * (1 + rng.Float64()),
				ModelGPUUnits: 50, GPUSeconds: 1e-6 * (1 + rng.Float64()),
				TransferBytes: int64(1 + rng.Intn(1<<20)), TransferSeconds: 1e-4 * (1 + rng.Float64()),
				Transfers: 1})
		}
	}
	raw, err := live.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := autotune.LoadTuner(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		want, err := live.Decide(0, sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Decide(0, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Calibrated {
			t.Errorf("%s: loaded tuner decided cold", sp.Alg)
		}
		sameDecision(t, sp.Alg, got, want)
	}
}

// TestConcurrentDecideObserve drives one calibration from several goroutines
// over more shapes than it retains tables for (so the set is dropped and
// rebuilt underneath readers); run under -race.
func TestConcurrentDecideObserve(t *testing.T) {
	var specs []autotune.Spec
	for levels := 3; levels <= 12; levels++ {
		for _, sp := range algSpecs(levels) {
			cpuOnly := sp
			cpuOnly.HasGPU = false
			specs = append(specs, sp, cpuOnly)
		}
	}
	c := autotune.NewCalibration(1, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range specs {
				sp := specs[(i*7+g*41)%len(specs)]
				dec, err := c.Decide(sp)
				if err != nil {
					t.Errorf("%s L=%d: %v", sp.Alg, sp.Levels, err)
					return
				}
				if dec.Costs[dec.Strategy] != dec.Predicted {
					t.Errorf("%s L=%d: Predicted %g is not the %s cost %g", sp.Alg, sp.Levels,
						dec.Predicted, dec.Strategy, dec.Costs[dec.Strategy])
				}
				cpu, gpu, err := c.UnitsFor(sp, dec.Strategy, dec.Crossover, dec.Alpha, dec.Y)
				if err != nil {
					t.Errorf("%s L=%d: units of %s: %v", sp.Alg, sp.Levels, dec.Strategy, err)
					return
				}
				c.Observe(autotune.Observation{Alg: sp.Alg, N: sp.N,
					ModelCPUUnits: cpu, CPUSeconds: 1e-6 * cpu, ModelGPUUnits: gpu, GPUSeconds: 1e-6 * gpu,
					TransferBytes: sp.Bytes, TransferSeconds: 1e-4, Transfers: 2})
			}
		}(g)
	}
	wg.Wait()
}

var sinkDecision autotune.Decision

// BenchmarkDecideAfterRefit is the serving layer's steady state: every job's
// completion refits its bucket and the next placement decides against the
// new rates (mergesort 2^16 on the HPU1 triple, as bench/probes.go prices).
func BenchmarkDecideAfterRefit(b *testing.B) {
	sp := testSpec(1<<16, true)
	c := autotune.NewCalibration(0, 0)
	obs := autotune.Observation{Alg: sp.Alg, N: sp.N,
		ModelCPUUnits: 1e6, CPUSeconds: 1e-3, ModelGPUUnits: 1e6, GPUSeconds: 2e-3,
		TransferBytes: sp.Bytes, TransferSeconds: 1e-4, Transfers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.CPUSeconds = 1e-3 * float64(1+i%3)
		c.Observe(obs)
		dec, err := c.Decide(sp)
		if err != nil {
			b.Fatal(err)
		}
		sinkDecision = dec
	}
}
