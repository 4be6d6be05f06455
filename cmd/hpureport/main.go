// Command hpureport runs the full evaluation at paper scale and emits a
// Markdown paper-vs-measured table for every reproduced artifact — the data
// section of EXPERIMENTS.md. Runtime is dominated by the n = 2^24 mergesort
// sweeps (several minutes).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/estimate"
	"repro/internal/exp"
	"repro/internal/hpu"
	"repro/internal/model"
)

func main() {
	maxLogN := flag.Int("maxlogn", 24, "largest input size exponent for the sweeps")
	flag.Parse()

	fmt.Println("| ID | Artifact | Paper | Measured (this repo) |")
	fmt.Println("|---|---|---|---|")

	// Table 2, Fig 5 and Fig 6 read the same two estimations per platform:
	// the saturation knee g and the scalar ratio 1/γ.
	platforms := hpu.Platforms()
	gs := make([]int, len(platforms))
	invs := make([]float64, len(platforms))
	for i, pl := range platforms {
		var err error
		gs[i], _, err = estimate.EstimateG(pl, estimate.DefaultSaturationConfig())
		check(err)
		invs[i], _, err = estimate.EstimateGammaInv(pl, estimate.DefaultGammaConfig())
		check(err)
		paper := [2]string{"p=4, g=4096, 1/γ=160", "p=4, g=1200, 1/γ=65"}[i]
		row("T2", fmt.Sprintf("%s parameters", pl.Name), paper,
			fmt.Sprintf("p=%d, g=%d, 1/γ=%.0f", pl.CPU.Cores, gs[i], invs[i]))
	}

	// Fig 3/4: model optimum.
	poly, err := model.NewPoly(2, 2, 1<<24, model.Machine{P: 4, G: 4096, Gamma: 1.0 / 160})
	check(err)
	alpha, y, frac := poly.Optimum()
	row("F3/F4", "model optimum (HPU1, n=2^24)",
		"α*≈0.16, y≈10, GPU work ≈52%",
		fmt.Sprintf("α*=%.3f, y=%.2f, GPU work %.1f%%", alpha, y, 100*frac))

	// Fig 5: saturation knees.
	for i, pl := range platforms {
		row("F5", fmt.Sprintf("%s saturation knee", pl.Name),
			[]string{"4096", "1200"}[i], fmt.Sprintf("%d", gs[i]))
	}

	// Fig 6: scalar ratios.
	for i, pl := range platforms {
		row("F6", fmt.Sprintf("%s 1/γ (flat in size)", pl.Name),
			[]string{"≈160", "≈65"}[i], fmt.Sprintf("%.1f", invs[i]))
	}

	// Fig 7: α sweep at n = maxLogN on HPU1.
	{
		cfg := exp.DefaultFig7Config()
		cfg.LogN = *maxLogN
		fig, err := exp.Fig7(cfg)
		check(err)
		bestSp, bestAlpha, bestY := 0.0, 0.0, ""
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if p.Y > bestSp {
					bestSp, bestAlpha, bestY = p.Y, p.X, s.Name
				}
			}
		}
		row("F7", fmt.Sprintf("best (α, y) cell, HPU1 n=2^%d", *maxLogN),
			"≈4.5x near α≈0.16, y 9–11",
			fmt.Sprintf("%.2fx at α=%.2f, %s", bestSp, bestAlpha, bestY))
	}

	// Fig 8 + Fig 10: per-size sweeps on both platforms.
	for i, pl := range platforms {
		cfg := exp.DefaultSweepConfig(pl)
		var sizes []int
		for _, s := range cfg.LogNs {
			if s <= *maxLogN {
				sizes = append(sizes, s)
			}
		}
		cfg.LogNs = sizes
		results, err := exp.MergesortSweep(cfg)
		check(err)
		bestSp, bestPred, atLogN := 0.0, 0.0, 0
		for _, r := range results {
			if sp := r.SeqSeconds / r.BestSeconds; sp > bestSp {
				bestSp, bestPred, atLogN = sp, r.PredSpeedup, r.LogN
			}
		}
		last := results[len(results)-1]
		paperBest := []string{"4.54x (predicted 5.47x)", "4.35x (predicted 5.7x)"}[i]
		row("F8", fmt.Sprintf("%s max hybrid speedup", pl.Name), paperBest,
			fmt.Sprintf("%.2fx at n=2^%d (predicted %.2fx)", bestSp, atLogN, bestPred))
		row("F10", fmt.Sprintf("%s best (α, y) at n=2^%d", pl.Name, last.LogN),
			"obtained ≈ predicted at large n",
			fmt.Sprintf("obtained α=%.3f y=%d vs predicted α=%.3f y=%d",
				last.BestAlpha, last.BestY, last.PredAlpha, last.PredY))
		if m, ok := rollOff(results); i == 0 && ok {
			row("F8", "HPU1 roll-off past n=2^20", "speedup declines (LLC exhaustion)", m)
		}
	}

	// Fig 9: GPU-only parallel merge.
	{
		cfg := exp.DefaultFig9Config()
		var sizes []int
		for _, s := range cfg.LogNs {
			if s <= *maxLogN {
				sizes = append(sizes, s)
			}
		}
		cfg.LogNs = sizes
		_, speedups, err := exp.Fig9(cfg)
		check(err)
		sortOnly := speedups.Series[0].Points
		withXfer := speedups.Series[1].Points
		lastS := sortOnly[len(sortOnly)-1].Y
		lastX := withXfer[len(withXfer)-1].Y
		row("F9", fmt.Sprintf("GPU-only speedup, HPU1 n=2^%d", *maxLogN),
			"18–20x sort-only, ≈12x with transfers",
			fmt.Sprintf("%.1fx sort-only, %.1fx with transfers", lastS, lastX))
	}
	fmt.Fprintln(os.Stderr, "hpureport: done")
}

// rollOff is the measured cell of the F8 roll-off row — the paper notes the
// speedup declining past 2^20 on both platforms — comparing 2^20 with the
// sweep's largest size; there is no row unless the sweep reaches 2^20 and
// goes past it.
func rollOff(results []exp.SizeResult) (string, bool) {
	last := results[len(results)-1]
	for _, r := range results {
		if r.LogN == 20 && last.LogN > 20 {
			return fmt.Sprintf("%.2fx at 2^20 → %.2fx at 2^%d",
				r.SeqSeconds/r.BestSeconds, last.SeqSeconds/last.BestSeconds, last.LogN), true
		}
	}
	return "", false
}

func row(id, artifact, paper, measured string) {
	fmt.Printf("| %s | %s | %s | %s |\n", id, artifact, paper, measured)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpureport: %v\n", err)
		os.Exit(1)
	}
}
