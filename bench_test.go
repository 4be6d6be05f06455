// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices called out in DESIGN.md §6.
// Each benchmark runs a reduced-size instance of the corresponding
// experiment driver (cmd/hpubench runs them at paper scale) and reports the
// key quantity of the artifact — usually a speedup — as a custom metric.
package hybriddc

import (
	"context"

	"testing"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exp"
	"repro/internal/hpu"
	"repro/internal/model"
	"repro/internal/native"
	"repro/internal/workload"
)

// benchLogN keeps benchmark instances moderate; hpubench regenerates the
// full-scale artifacts.
const benchLogN = 16

// BenchmarkTable1Platforms regenerates Table 1 (platform specifications).
func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Table1(); len(tab.Rows) != 2 {
			b.Fatal("Table1 malformed")
		}
	}
}

// BenchmarkTable2Estimate regenerates Table 2: the (p, g, γ) estimation on
// HPU1 via the Fig 5/6 procedures.
func BenchmarkTable2Estimate(b *testing.B) {
	var got estimate.Result
	for i := 0; i < b.N; i++ {
		var err error
		got, err = estimate.Platform(hpu.HPU1())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(got.G), "g")
	b.ReportMetric(got.GammaInv, "1/γ")
}

// BenchmarkFig3Model regenerates the Fig 3 closed-form curves (y(α) and GPU
// work share) at the paper's n = 2^24.
func BenchmarkFig3Model(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig3(exp.DefaultFig3Config())
		if err != nil {
			b.Fatal(err)
		}
		_ = fig
		poly, _ := model.NewPoly(2, 2, 1<<24, model.Machine{P: 4, G: 4096, Gamma: 1.0 / 160})
		_, _, frac = poly.Optimum()
	}
	b.ReportMetric(100*frac, "gpu-work-%")
}

// BenchmarkFig5Saturation regenerates the Fig 5 saturation sweep on HPU1.
func BenchmarkFig5Saturation(b *testing.B) {
	cfg := estimate.DefaultSaturationConfig()
	cfg.Step = 64
	var g int
	for i := 0; i < b.N; i++ {
		var err error
		g, _, err = estimate.EstimateG(hpu.HPU1(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g), "g-knee")
}

// BenchmarkFig6ScalarRatio regenerates the Fig 6 single-thread merge ratio.
func BenchmarkFig6ScalarRatio(b *testing.B) {
	var inv float64
	for i := 0; i < b.N; i++ {
		var err error
		inv, _, err = estimate.EstimateGammaInv(hpu.HPU1(), estimate.DefaultGammaConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(inv, "1/γ")
}

// BenchmarkFig7AlphaSweep regenerates a reduced Fig 7: the α × y speedup
// sweep of the advanced hybrid mergesort on HPU1.
func BenchmarkFig7AlphaSweep(b *testing.B) {
	cfg := exp.Fig7Config{
		Platform: hpu.HPU1(),
		LogN:     benchLogN,
		Alphas:   []float64{0.08, 0.16, 0.24},
		Ys:       []int{7, 8, 9},
		Seed:     1,
	}
	var best float64
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if p.Y > best {
					best = p.Y
				}
			}
		}
	}
	b.ReportMetric(best, "best-speedup")
}

func benchSweep() exp.SweepConfig {
	cfg := exp.DefaultSweepConfig(hpu.HPU1())
	cfg.LogNs = []int{12, 14, benchLogN}
	cfg.AlphaFactors = []float64{0.75, 1.0, 1.25}
	cfg.YOffsets = []int{0, 1}
	return cfg
}

// BenchmarkFig8SpeedupVsN regenerates a reduced Fig 8: best hybrid speedup
// vs input size against the model prediction.
func BenchmarkFig8SpeedupVsN(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig8(benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		pts := fig.Series[0].Points
		last = pts[len(pts)-1].Y
	}
	b.ReportMetric(last, "speedup-at-2^16")
}

// BenchmarkFig9ParallelGPU regenerates a reduced Fig 9: the GPU-only
// parallel-merge mergesort against the 1-core baseline.
func BenchmarkFig9ParallelGPU(b *testing.B) {
	cfg := exp.Fig9Config{Platform: hpu.HPU1(), LogNs: []int{benchLogN}, Seed: 1}
	var sortOnly float64
	for i := 0; i < b.N; i++ {
		_, speedups, err := exp.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sortOnly = speedups.Series[0].Points[0].Y
	}
	b.ReportMetric(sortOnly, "sort-only-speedup")
}

// BenchmarkFig10OptimalParams regenerates a reduced Fig 10: best-measured
// (α, y) against the model's predictions.
func BenchmarkFig10OptimalParams(b *testing.B) {
	var obtained, predicted float64
	for i := 0; i < b.N; i++ {
		alphaFig, _, err := exp.Fig10(benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		pts := alphaFig.Series[0].Points
		obtained = pts[len(pts)-1].Y
		predicted = alphaFig.Series[1].Points[len(pts)-1].Y
	}
	b.ReportMetric(obtained, "alpha-obtained")
	b.ReportMetric(predicted, "alpha-predicted")
}

// runHybrid executes one advanced hybrid mergesort on a fresh simulated
// HPU1 and returns (sequential, hybrid) times.
func runHybrid(b *testing.B, in []int32, opts ...core.Option) (float64, float64) {
	b.Helper()
	seqBe := hpu.MustSim(hpu.HPU1())
	seqS, err := mergesort.New(in)
	if err != nil {
		b.Fatal(err)
	}
	seq, err := core.RunSequentialCtx(context.Background(), seqBe, seqS)
	if err != nil {
		b.Fatal(err)
	}

	be := hpu.MustSim(hpu.HPU1())
	s, err := mergesort.New(in)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.RunAdvancedHybridCtx(context.Background(), be, s, 0.17, 9, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return seq.Seconds, rep.Seconds
}

// BenchmarkAblationCoalescing compares the advanced hybrid with and without
// the §6.3 memory-layout transformation.
func BenchmarkAblationCoalescing(b *testing.B) {
	in := workload.Uniform(1<<benchLogN, 1)
	for _, coalesce := range []bool{true, false} {
		name := "off"
		if coalesce {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var seq, hyb float64
			for i := 0; i < b.N; i++ {
				seq, hyb = runHybrid(b, in, coalesceOpts(coalesce)...)
			}
			b.ReportMetric(seq/hyb, "speedup")
		})
	}
}

// BenchmarkAblationStrategies compares every execution strategy on the same
// instance.
func BenchmarkAblationStrategies(b *testing.B) {
	in := workload.Uniform(1<<benchLogN, 2)
	seqBe := hpu.MustSim(hpu.HPU1())
	seqS, _ := mergesort.New(in)
	baselineRep, err := core.RunSequentialCtx(context.Background(), seqBe, seqS)
	if err != nil {
		b.Fatal(err)
	}
	baseline := baselineRep.Seconds

	strategies := []struct {
		name string
		run  func() float64
	}{
		{"bf-cpu", func() float64 {
			be := hpu.MustSim(hpu.HPU1())
			s, _ := mergesort.New(in)
			rep, err := core.RunBreadthFirstCPUCtx(context.Background(), be, s)
			if err != nil {
				b.Fatal(err)
			}
			return rep.Seconds
		}},
		{"basic-hybrid", func() float64 {
			be := hpu.MustSim(hpu.HPU1())
			s, _ := mergesort.New(in)
			rep, err := core.RunBasicHybridCtx(context.Background(), be, s, 10, core.WithCoalesce())
			if err != nil {
				b.Fatal(err)
			}
			return rep.Seconds
		}},
		{"advanced-hybrid", func() float64 {
			be := hpu.MustSim(hpu.HPU1())
			s, _ := mergesort.New(in)
			rep, err := core.RunAdvancedHybridCtx(context.Background(), be, s, 0.17, 9, core.WithCoalesce())
			if err != nil {
				b.Fatal(err)
			}
			return rep.Seconds
		}},
		{"gpu-only-parallel", func() float64 {
			be := hpu.MustSim(hpu.HPU1())
			s, _ := mergesort.NewParallel(in)
			rep, err := core.RunGPUOnlyCtx(context.Background(), be, s)
			if err != nil {
				b.Fatal(err)
			}
			return rep.Seconds
		}},
	}
	for _, st := range strategies {
		b.Run(st.name, func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				secs = st.run()
			}
			b.ReportMetric(baseline/secs, "speedup")
		})
	}
}

// BenchmarkAblationDynamicSched compares the paper's static two-transfer
// advanced division against the per-level dynamic (StarPU-style) baseline.
func BenchmarkAblationDynamicSched(b *testing.B) {
	in := workload.Uniform(1<<benchLogN, 3)
	b.Run("static-advanced", func(b *testing.B) {
		var seq, hyb float64
		for i := 0; i < b.N; i++ {
			seq, hyb = runHybrid(b, in, core.WithCoalesce())
		}
		b.ReportMetric(seq/hyb, "speedup")
	})
	b.Run("dynamic-per-level", func(b *testing.B) {
		var speedup float64
		for i := 0; i < b.N; i++ {
			seqBe := hpu.MustSim(hpu.HPU1())
			seqS, _ := mergesort.New(in)
			seqRep, err := core.RunSequentialCtx(context.Background(), seqBe, seqS)
			if err != nil {
				b.Fatal(err)
			}
			seq := seqRep.Seconds
			be := hpu.MustSim(hpu.HPU1())
			s, _ := mergesort.New(in)
			rep, err := core.RunDynamicHybridCtx(context.Background(), be, s)
			if err != nil {
				b.Fatal(err)
			}
			speedup = seq / rep.Seconds
		}
		b.ReportMetric(speedup, "speedup")
	})
}

// BenchmarkNativeMergesort measures the real-goroutine backend on this
// machine (wall-clock, CPU only): the library as a multi-core D&C runtime.
func BenchmarkNativeMergesort(b *testing.B) {
	in := workload.Uniform(1<<benchLogN, 4)
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1-worker", 2: "2-workers", 4: "4-workers"}[workers],
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be, err := native.New(native.Config{CPUWorkers: workers})
					if err != nil {
						b.Fatal(err)
					}
					s, err := mergesort.New(in)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := core.RunBreadthFirstCPUCtx(context.Background(), be, s); err != nil {
						b.Fatal(err)
					}
					be.Close()
					if !workload.IsSorted(s.Result()) {
						b.Fatal("unsorted")
					}
				}
			})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: events per
// second of the discrete-event engine driving a full hybrid run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	in := workload.Uniform(1<<14, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		be := hpu.MustSim(hpu.HPU1())
		s, _ := mergesort.New(in)
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, 0.16, 8, core.WithCoalesce()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionMultiGPU measures the §3.2 multi-device extension: the
// advanced division striped over 1 vs 2 dies of HPU1 (footnote 5).
func BenchmarkExtensionMultiGPU(b *testing.B) {
	in := workload.Uniform(1<<benchLogN, 6)
	for _, devices := range []int{1, 2} {
		b.Run(map[int]string{1: "1-die", 2: "2-dies"}[devices], func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				be, err := hpu.NewMultiSim(hpu.HPU1(), devices)
				if err != nil {
					b.Fatal(err)
				}
				s, _ := mergesort.New(in)
				rep, err := core.RunMultiGPUCtx(context.Background(), be, s,
					0.17, 9, core.WithCoalesce())
				if err != nil {
					b.Fatal(err)
				}
				secs = rep.Seconds
			}
			b.ReportMetric(secs*1e3, "virtual-ms")
		})
	}
}

// BenchmarkExtensionAnySorter measures the footnote-4 arbitrary-length
// sorter against the power-of-two implementation on comparable inputs.
func BenchmarkExtensionAnySorter(b *testing.B) {
	n := (1 << benchLogN) - 12345 // decidedly not a power of two
	in := workload.Uniform(n, 7)
	var secs float64
	for i := 0; i < b.N; i++ {
		be := hpu.MustSim(hpu.HPU1())
		s, err := mergesort.NewAny(in)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.RunAdvancedHybridCtx(context.Background(), be, s, 0.17, 9)
		if err != nil {
			b.Fatal(err)
		}
		if !workload.IsSorted(s.Result()) {
			b.Fatal("unsorted")
		}
		secs = rep.Seconds
	}
	b.ReportMetric(secs*1e3, "virtual-ms")
}

// BenchmarkExtensionExtendedModel measures the §7 refined model's full
// (α, y) search, the planning cost a user pays per instance.
func BenchmarkExtensionExtendedModel(b *testing.B) {
	num, err := model.NewNumeric(2, 2, 24,
		func(s float64) float64 { return 2 * s }, 0,
		model.Machine{P: 4, G: 4096, Gamma: 1.0 / 160})
	if err != nil {
		b.Fatal(err)
	}
	pl := hpu.HPU1()
	ext, err := model.NewExtended(num, model.ExtendedParams{
		CoreRate: pl.CPU.RateOpsPerSec, MemBW: pl.CPU.MemBWOpsPerSec,
		LLCBytes: pl.CPU.LLCBytes, BytesPerSize: 8, TransferBytesPerSize: 4,
		HideFactor: pl.GPU.HideFactor, Divergent: true,
		LaunchSec: pl.GPU.LaunchOverheadSec, DispatchSec: pl.CPU.DispatchOverheadSec,
		LinkLatencySec: pl.Link.LatencySec, LinkSecPerByte: pl.Link.SecPerByte,
	})
	if err != nil {
		b.Fatal(err)
	}
	var alpha float64
	for i := 0; i < b.N; i++ {
		alpha, _, _ = ext.BestAdvancedSeconds(60)
	}
	b.ReportMetric(alpha, "alpha")
}

// coalesceOpts returns the coalescing option when on, for benchmarks that
// toggle it.
func coalesceOpts(on bool) []core.Option {
	if on {
		return []core.Option{core.WithCoalesce()}
	}
	return nil
}
