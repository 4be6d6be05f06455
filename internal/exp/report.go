package exp

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/hpu"
	"repro/internal/model"
)

// Report is the paper-vs-measured table for every reproduced artifact, the
// headline table of EXPERIMENTS.md. The sweeps (F7–F10) run up to
// n = 2^logN; the F3/F4 row is the model at the paper's n = 2^24 whatever
// logN is.
func Report(logN int) (Table, error) {
	t, _, err := report(logN)
	return t, err
}

// report builds Report's table and, per row, the values its Measured cell
// formats.
func report(logN int) (Table, [][]any, error) {
	t := Table{
		ID:      "report",
		Title:   fmt.Sprintf("Paper vs measured, sweeps up to n=2^%d", logN),
		Columns: []string{"ID", "Artifact", "Paper", "Measured (this repo)"},
	}
	var values [][]any
	row := func(id, artifact, paper, format string, v ...any) {
		t.Rows = append(t.Rows, []string{id, artifact, paper, fmt.Sprintf(format, v...)})
		values = append(values, v)
	}

	// Table 2, Fig 5 and Fig 6 read the same two estimations per platform:
	// the saturation knee g and the scalar ratio 1/γ.
	platforms := hpu.Platforms()
	est := make([]estimate.Result, len(platforms))
	for i, pl := range platforms {
		var err error
		if est[i], err = estimate.Platform(pl); err != nil {
			return Table{}, nil, fmt.Errorf("exp: estimating %s: %w", pl.Name, err)
		}
		row("T2", pl.Name+" parameters", [...]string{"p=4, g=4096, 1/γ=160", "p=4, g=1200, 1/γ=65"}[i],
			"p=%d, g=%d, 1/γ=%.0f", est[i].P, est[i].G, est[i].GammaInv)
	}

	poly, err := model.NewPoly(2, 2, 1<<24, machineOf(hpu.HPU1()))
	if err != nil {
		return Table{}, nil, err
	}
	alpha, y, frac := poly.Optimum()
	row("F3/F4", "model optimum (HPU1, n=2^24)", "α*≈0.16, y≈10, GPU work ≈52%",
		"α*=%.3f, y=%.2f, GPU work %.1f%%", alpha, y, 100*frac)

	for i, pl := range platforms {
		row("F5", pl.Name+" saturation knee", [...]string{"4096", "1200"}[i], "%d", est[i].G)
	}
	for i, pl := range platforms {
		row("F6", pl.Name+" 1/γ (flat in size)", [...]string{"≈160", "≈65"}[i], "%.1f", est[i].GammaInv)
	}

	cfg7 := DefaultFig7Config()
	cfg7.LogN = logN
	fig7, err := Fig7(cfg7)
	if err != nil {
		return Table{}, nil, err
	}
	bestSp, bestAlpha, bestY := 0.0, 0.0, ""
	for _, s := range fig7.Series {
		for _, p := range s.Points {
			if p.Y > bestSp {
				bestSp, bestAlpha, bestY = p.Y, p.X, s.Name
			}
		}
	}
	row("F7", fmt.Sprintf("best (α, y) cell, HPU1 n=2^%d", logN), "≈4.5x near α≈0.16, y 9–11",
		"%.2fx at α=%.2f, %s", bestSp, bestAlpha, bestY)

	for i, pl := range platforms {
		cfg := DefaultSweepConfig(pl)
		cfg.LogNs = upTo(cfg.LogNs, logN)
		results, err := MergesortSweep(cfg)
		if err != nil {
			return Table{}, nil, err
		}
		bestSp, bestPred, atLogN := 0.0, 0.0, 0
		for _, r := range results {
			if sp := r.SeqSeconds / r.BestSeconds; sp > bestSp {
				bestSp, bestPred, atLogN = sp, r.PredSpeedup, r.LogN
			}
		}
		last := results[len(results)-1]
		row("F8", pl.Name+" max hybrid speedup", [...]string{"4.54x (predicted 5.47x)", "4.35x (predicted 5.7x)"}[i],
			"%.2fx at n=2^%d (predicted %.2fx)", bestSp, atLogN, bestPred)
		row("F10", fmt.Sprintf("%s best (α, y) at n=2^%d", pl.Name, last.LogN), "obtained ≈ predicted at large n",
			"obtained α=%.3f y=%d vs predicted α=%.3f y=%d", last.BestAlpha, last.BestY, last.PredAlpha, last.PredY)
		if m, ok := rollOff(results); i == 0 && ok {
			row("F8", "HPU1 roll-off past n=2^20", "speedup declines (LLC exhaustion)", "%s", m)
		}
	}

	cfg9 := DefaultFig9Config()
	cfg9.LogNs = upTo(cfg9.LogNs, logN)
	_, speedups, err := Fig9(cfg9)
	if err != nil {
		return Table{}, nil, err
	}
	sortOnly := speedups.Series[0].Points
	withXfer := speedups.Series[1].Points
	row("F9", fmt.Sprintf("GPU-only speedup, HPU1 n=2^%d", logN), "18–20x sort-only, ≈12x with transfers",
		"%.1fx sort-only, %.1fx with transfers", sortOnly[len(sortOnly)-1].Y, withXfer[len(withXfer)-1].Y)
	return t, values, nil
}

// rollOff is the measured cell of the F8 roll-off row — the paper notes the
// speedup declining past 2^20 on both platforms — comparing 2^20 with the
// sweep's largest size; there is no row unless the sweep reaches 2^20 and
// goes past it.
func rollOff(results []SizeResult) (string, bool) {
	last := results[len(results)-1]
	for _, r := range results {
		if r.LogN == 20 && last.LogN > 20 {
			return fmt.Sprintf("%.2fx at 2^20 → %.2fx at 2^%d",
				r.SeqSeconds/r.BestSeconds, last.SeqSeconds/last.BestSeconds, last.LogN), true
		}
	}
	return "", false
}

// upTo keeps the sizes no larger than 2^logN.
func upTo(logNs []int, logN int) []int {
	var out []int
	for _, s := range logNs {
		if s <= logN {
			out = append(out, s)
		}
	}
	return out
}
