package exp

import (
	"fmt"

	"repro/internal/hpu"
	"repro/internal/model"
	"repro/internal/stats"
)

// Fig3Config parameterizes the closed-form model curves.
type Fig3Config struct {
	Platform hpu.Platform
	LogN     int
	// AlphaSteps is the number of samples across the α range.
	AlphaSteps int
}

// DefaultFig3Config reproduces the paper's example: mergesort on HPU1 with
// n = 2^24.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{Platform: hpu.HPU1(), LogN: 24, AlphaSteps: 200}
}

// Fig3 reproduces Figure 3: for mergesort (a = b = 2, f(n) = Θ(n)), the
// transfer level y(α) reached by the GPU (left panel) and the fraction of
// total work done by the GPU (right panel), as functions of the work ratio α.
func Fig3(cfg Fig3Config) (Figure, error) {
	if cfg.AlphaSteps < 2 {
		return Figure{}, fmt.Errorf("exp: Fig3 needs at least 2 alpha steps, got %d", cfg.AlphaSteps)
	}
	poly, err := model.NewPoly(2, 2, float64(uint64(1)<<cfg.LogN), machineOf(cfg.Platform))
	if err != nil {
		return Figure{}, err
	}
	var yPts, wPts []stats.Point
	lo := poly.MinAlpha()
	for i := 0; i <= cfg.AlphaSteps; i++ {
		alpha := lo + (0.999-lo)*float64(i)/float64(cfg.AlphaSteps)
		y, _ := poly.Y(alpha)
		yPts = append(yPts, stats.Point{X: alpha, Y: y})
		wPts = append(wPts, stats.Point{X: alpha, Y: 100 * poly.GPUWorkFraction(alpha)})
	}
	aStar, yStar, frac := poly.Optimum()
	return Figure{
		ID:     "fig3",
		Title:  fmt.Sprintf("Model curves for mergesort on %s, n=2^%d", cfg.Platform.Name, cfg.LogN),
		XLabel: "work ratio alpha",
		YLabel: "level y(alpha) / GPU work %",
		Series: []Series{
			{Name: "y(alpha)", Points: yPts},
			{Name: "GPU work % of total", Points: wPts},
		},
		Notes: []string{
			fmt.Sprintf("optimum: alpha*=%.3f, y=%.2f, GPU work=%.1f%%", aStar, yStar, 100*frac),
			"paper (HPU1, n=2^24): alpha*~0.16, y~10, GPU work ~52%",
		},
	}, nil
}

// Fig4 reproduces Figure 4's summary: the advanced work division chosen for
// mergesort — the split of the input, the transfer level, and the share of
// work per unit.
func Fig4(cfg Fig3Config) (Table, error) {
	poly, err := model.NewPoly(2, 2, float64(uint64(1)<<cfg.LogN), machineOf(cfg.Platform))
	if err != nil {
		return Table{}, err
	}
	alpha, y, frac := poly.Optimum()
	m := machineOf(cfg.Platform)
	basic := "basic division (§5.1): γ·g < p, the GPU never wins; stay on the CPU"
	if x, ok := model.BasicCrossover(2, m); ok {
		basic = fmt.Sprintf("basic division (§5.1): levels 0..%d on the CPU, %d and below on the GPU", x-1, x)
	}
	// The numeric model at (α*, round(y)), with level cost f(size) = size and
	// unit leaves, as the closed form counts work.
	num, err := model.NewNumeric(2, 2, cfg.LogN, func(size float64) float64 { return size }, 1, m)
	if err != nil {
		return Table{}, err
	}
	yi := clampY(int(y+0.5), cfg.LogN)
	pred, err := num.PredictAdvanced(alpha, yi, num.DefaultSplit(alpha, yi))
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:    "fig4",
		Title: fmt.Sprintf("Advanced hybrid work division for mergesort on %s, n=2^%d", cfg.Platform.Name, cfg.LogN),
		Columns: []string{
			"alpha* (CPU share)", "transfer level y", "GPU work fraction",
			"CPU leaves", "GPU leaves",
		},
		Rows: [][]string{{
			fmt.Sprintf("%.3f", alpha),
			fmt.Sprintf("%.2f", y),
			fmt.Sprintf("%.1f%%", 100*frac),
			fmt.Sprintf("%.3g", alpha*poly.LevelWork()),
			fmt.Sprintf("%.3g", (1-alpha)*poly.LevelWork()),
		}},
		Notes: []string{
			fmt.Sprintf("machine: p=%d, g=%d, 1/γ=%.0f", m.P, m.G, 1/m.Gamma),
			basic,
			fmt.Sprintf("numeric model at (α*, y=%d): %.2fx over one core", yi, num.SequentialTime()/pred.Makespan),
			"paper (Fig 4): α≈0.16 (0.16n | 0.84n), transfer level 10",
		},
	}, nil
}
