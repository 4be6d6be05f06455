package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig7Config parameterizes the α × y sweep of the advanced hybrid mergesort.
type Fig7Config struct {
	Platform hpu.Platform
	LogN     int
	// Alphas are the transfer-ratio sample points.
	Alphas []float64
	// Ys are the transfer levels, one series each (the paper plots 7–12).
	Ys   []int
	Seed int64
}

// DefaultFig7Config matches the paper: HPU1, n = 2^24, y ∈ {7..12}. (Use a
// smaller LogN for quick runs; the shape is size-stable.)
func DefaultFig7Config() Fig7Config {
	var alphas []float64
	for a := 0.02; a <= 0.35; a += 0.03 {
		alphas = append(alphas, a)
	}
	return Fig7Config{
		Platform: hpu.HPU1(),
		LogN:     24,
		Alphas:   alphas,
		Ys:       []int{7, 8, 9, 10, 11, 12},
		Seed:     1,
	}
}

// Fig7 reproduces Figure 7: speedup of the advanced hybrid mergesort over
// the 1-core recursive baseline, as a function of the work ratio α, one
// series per transfer level y.
func Fig7(cfg Fig7Config) (Figure, error) {
	if len(cfg.Alphas) == 0 || len(cfg.Ys) == 0 {
		return Figure{}, fmt.Errorf("exp: Fig7 needs nonempty alpha and y grids")
	}
	n := 1 << cfg.LogN
	in := workload.Uniform(n, cfg.Seed)
	seq, err := sequentialMergesort(cfg.Platform, in)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID: "fig7",
		Title: fmt.Sprintf("CPU(%d)-GPU mergesort speedup vs transfer ratio on %s, n=2^%d",
			cfg.Platform.CPU.Cores, cfg.Platform.Name, cfg.LogN),
		XLabel: "transfer ratio (alpha)",
		YLabel: "speedup over 1-CPU",
	}
	for _, y := range cfg.Ys {
		yc := clampY(y, cfg.LogN)
		s := Series{Name: fmt.Sprintf("y=%d", y)}
		for _, alpha := range cfg.Alphas {
			rep, err := advancedMergesort(cfg.Platform, in, alpha, yc)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, stats.Point{X: alpha, Y: seq / rep.Seconds})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper (HPU1, n=2^24): peak ~4.5x near alpha~0.16, best levels 9-11")
	return fig, nil
}

// SweepConfig parameterizes the per-size parameter sweep shared by Fig 8 and
// Fig 10.
type SweepConfig struct {
	Platform hpu.Platform
	// LogNs are the input sizes, as exponents of 2.
	LogNs []int
	// AlphaFactors scale the model-predicted α* to form the local search
	// grid, as the paper's per-size tuning does.
	AlphaFactors []float64
	// YOffsets are added to the model-predicted transfer level.
	YOffsets []int
	Seed     int64
}

// DefaultSweepConfig covers the paper's size range at sweep cost that stays
// tractable in simulation (the paper plots 10^3..10^8; 2^10..2^24 spans it
// up to the last half-decade).
func DefaultSweepConfig(pl hpu.Platform) SweepConfig {
	return SweepConfig{
		Platform:     pl,
		LogNs:        []int{10, 12, 14, 16, 18, 20, 22, 24},
		AlphaFactors: []float64{0.5, 0.75, 1.0, 1.25, 1.5},
		YOffsets:     []int{-1, 0, 1},
		Seed:         1,
	}
}

// SizeResult is the sweep outcome for one input size.
type SizeResult struct {
	LogN int
	// SeqSeconds is the 1-core recursive baseline.
	SeqSeconds float64
	// BestSeconds is the fastest hybrid run, achieved at BestAlpha/BestY.
	BestSeconds float64
	BestAlpha   float64
	BestY       int
	// BestReport carries the phase breakdown of the best run.
	BestReport core.Report
	// PredAlpha, PredY are the closed-form model's optimal parameters.
	PredAlpha float64
	PredY     int
	// PredSpeedup is the numeric model's predicted speedup at the
	// predicted parameters.
	PredSpeedup float64
}

// MergesortSweep runs, for each size, a local parameter sweep around the
// model's predicted optimum and records the best measured configuration —
// the methodology behind Figs 8 and 10.
func MergesortSweep(cfg SweepConfig) ([]SizeResult, error) {
	if len(cfg.LogNs) == 0 || len(cfg.AlphaFactors) == 0 || len(cfg.YOffsets) == 0 {
		return nil, fmt.Errorf("exp: sweep needs nonempty size and parameter grids")
	}
	var out []SizeResult
	for _, logN := range cfg.LogNs {
		if logN < 2 || logN > 30 {
			return nil, fmt.Errorf("exp: logN %d out of range [2,30]", logN)
		}
		n := 1 << logN
		in := workload.Uniform(n, cfg.Seed)
		res := SizeResult{LogN: logN}

		var err error
		res.SeqSeconds, err = sequentialMergesort(cfg.Platform, in)
		if err != nil {
			return nil, err
		}

		var predFrac float64
		res.PredAlpha, res.PredY, predFrac, err = predictedOptimum(cfg.Platform, logN)
		if err != nil {
			return nil, err
		}
		_ = predFrac

		num, err := mergesortNumeric(cfg.Platform, logN)
		if err != nil {
			return nil, err
		}
		pred, err := num.PredictAdvanced(res.PredAlpha, res.PredY,
			num.DefaultSplit(res.PredAlpha, res.PredY))
		if err != nil {
			return nil, err
		}
		res.PredSpeedup = num.SequentialTime() / pred.Makespan

		res.BestSeconds = -1
		for _, f := range cfg.AlphaFactors {
			alpha := res.PredAlpha * f
			if alpha <= 0 || alpha >= 1 {
				continue
			}
			for _, dy := range cfg.YOffsets {
				y := clampY(res.PredY+dy, logN)
				rep, err := advancedMergesort(cfg.Platform, in, alpha, y)
				if err != nil {
					return nil, err
				}
				if res.BestSeconds < 0 || rep.Seconds < res.BestSeconds {
					res.BestSeconds = rep.Seconds
					res.BestAlpha = alpha
					res.BestY = y
					res.BestReport = rep
				}
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig8 reproduces Figure 8: hybrid mergesort speedup as a function of input
// size — measured at the per-size best parameters (red), the model's
// predicted speedup (green), and the ratio between the GPU chain's time and
// the CPU's fully-utilized time (blue).
func Fig8(cfg SweepConfig) (Figure, error) {
	results, err := MergesortSweep(cfg)
	if err != nil {
		return Figure{}, err
	}
	var measured, predicted, ratio []stats.Point
	for _, r := range results {
		x := float64(uint64(1) << r.LogN)
		measured = append(measured, stats.Point{X: x, Y: r.SeqSeconds / r.BestSeconds})
		predicted = append(predicted, stats.Point{X: x, Y: r.PredSpeedup})
		if r.BestReport.CPUPortionSeconds > 0 {
			ratio = append(ratio, stats.Point{
				X: x,
				Y: r.BestReport.GPUPortionSeconds / r.BestReport.CPUPortionSeconds,
			})
		}
	}
	return Figure{
		ID:     "fig8-" + strings.ToLower(cfg.Platform.Name),
		Title:  fmt.Sprintf("Hybrid mergesort speedups on %s", cfg.Platform.Name),
		XLabel: "input size",
		YLabel: "speedup",
		LogX:   true,
		Series: []Series{
			{Name: "time(CPU(1))/time(hybrid)", Points: measured},
			{Name: "predicted", Points: predicted},
			{Name: "GPU/CPU", Points: ratio},
		},
		Notes: []string{
			"paper: max 4.54x on HPU1 / 4.35x on HPU2; predicted 5.47x / 5.7x",
			"paper: speedups decline past n=2^20 (LLC exhaustion)",
		},
	}, nil
}

// Fig10 reproduces Figure 10: the work ratio α (left) and transfer level y
// (right) that gave the best measured time per input size, against the
// model's predictions.
func Fig10(cfg SweepConfig) (Figure, Figure, error) {
	results, err := MergesortSweep(cfg)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	var obA, prA, obY, prY []stats.Point
	for _, r := range results {
		x := float64(uint64(1) << r.LogN)
		obA = append(obA, stats.Point{X: x, Y: r.BestAlpha})
		prA = append(prA, stats.Point{X: x, Y: r.PredAlpha})
		obY = append(obY, stats.Point{X: x, Y: float64(r.BestY)})
		prY = append(prY, stats.Point{X: x, Y: float64(r.PredY)})
	}
	alphaFig := Figure{
		ID:     "fig10a",
		Title:  fmt.Sprintf("Optimal work ratio vs input size on %s", cfg.Platform.Name),
		XLabel: "input size",
		YLabel: "ratio alpha",
		LogX:   true,
		Series: []Series{
			{Name: "obtained ratio", Points: obA},
			{Name: "predicted", Points: prA},
		},
		Notes: []string{"paper: obtained values approach predictions as n grows"},
	}
	levelFig := Figure{
		ID:     "fig10b",
		Title:  fmt.Sprintf("Optimal transfer level vs input size on %s", cfg.Platform.Name),
		XLabel: "input size",
		YLabel: "level y",
		LogX:   true,
		Series: []Series{
			{Name: "obtained level", Points: obY},
			{Name: "predicted", Points: prY},
		},
		Notes: []string{"paper: obtained levels coincide with predictions at large n"},
	}
	return alphaFig, levelFig, nil
}

// Fig9Config parameterizes the GPU-only parallel-merge baseline sweep.
type Fig9Config struct {
	Platform hpu.Platform
	LogNs    []int
	Seed     int64
}

// DefaultFig9Config matches the paper's HPU1 sweep.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Platform: hpu.HPU1(),
		LogNs:    []int{10, 12, 14, 16, 18, 20, 22, 24},
		Seed:     1,
	}
}

// Fig9 reproduces Figure 9: times (left axis series) and speedups over the
// 1-core recursive baseline (right series) of the GPU-only mergesort with
// parallel binary-search merges, with and without transfer overhead.
func Fig9(cfg Fig9Config) (Figure, Figure, error) {
	if len(cfg.LogNs) == 0 {
		return Figure{}, Figure{}, fmt.Errorf("exp: Fig9 needs at least one size")
	}
	var tCPU, tSort, tTotal []stats.Point
	var spSort, spTotal []stats.Point
	for _, logN := range cfg.LogNs {
		n := 1 << logN
		in := workload.Uniform(n, cfg.Seed)
		seq, err := sequentialMergesort(cfg.Platform, in)
		if err != nil {
			return Figure{}, Figure{}, err
		}
		be, err := hpu.NewSim(cfg.Platform)
		if err != nil {
			return Figure{}, Figure{}, err
		}
		s, err := mergesort.NewParallel(in)
		if err != nil {
			return Figure{}, Figure{}, err
		}
		rep, err := core.RunGPUOnlyCtx(context.Background(), be, s)
		if err != nil {
			return Figure{}, Figure{}, err
		}
		if !workload.IsSorted(s.Result()) {
			return Figure{}, Figure{}, fmt.Errorf("exp: gpu-only run at n=2^%d unsorted", logN)
		}
		x := float64(n)
		tCPU = append(tCPU, stats.Point{X: x, Y: seq})
		tSort = append(tSort, stats.Point{X: x, Y: rep.GPUPortionSeconds})
		tTotal = append(tTotal, stats.Point{X: x, Y: rep.Seconds})
		spSort = append(spSort, stats.Point{X: x, Y: seq / rep.GPUPortionSeconds})
		spTotal = append(spTotal, stats.Point{X: x, Y: seq / rep.Seconds})
	}
	times := Figure{
		ID:     "fig9a",
		Title:  fmt.Sprintf("Mergesort times on %s (GPU parallel merge)", cfg.Platform.Name),
		XLabel: "input size",
		YLabel: "time (s)",
		LogX:   true,
		Series: []Series{
			{Name: "time(GPU) sort", Points: tSort},
			{Name: "time(GPU) sort + transfer", Points: tTotal},
			{Name: "time(CPU)", Points: tCPU},
		},
	}
	speedups := Figure{
		ID:     "fig9b",
		Title:  fmt.Sprintf("Parallel GPU mergesort speedups on %s", cfg.Platform.Name),
		XLabel: "input size",
		YLabel: "speedup over 1-CPU",
		LogX:   true,
		Series: []Series{
			{Name: "time(CPU)/time(GPU) sort", Points: spSort},
			{Name: "time(CPU)/time(GPU) sort + transfer", Points: spTotal},
		},
		Notes: []string{
			"paper: 18-20x sort-only at large n, ~12x including transfers",
		},
	}
	return times, speedups, nil
}
