package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hpu"
)

func TestTable1(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 2 {
		t.Fatalf("Table1 rows = %d, want 2", len(tab.Rows))
	}
	if tab.Rows[0][0] != "HPU1" || tab.Rows[1][0] != "HPU2" {
		t.Errorf("unexpected platform order: %v, %v", tab.Rows[0][0], tab.Rows[1][0])
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{
		"HPU1": {4096, 160},
		"HPU2": {1200, 65},
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected platform %q", row[0])
		}
		g, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad g %q: %v", row[2], err)
		}
		inv, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad 1/γ %q: %v", row[3], err)
		}
		if g < w[0]-w[0]/20 || g > w[0]+w[0]/20 {
			t.Errorf("%s: g = %d, want ≈%d", row[0], g, w[0])
		}
		if inv < float64(w[1])*0.93 || inv > float64(w[1])*1.07 {
			t.Errorf("%s: 1/γ = %g, want ≈%d", row[0], inv, w[1])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := Fig3(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("Fig3 series = %d, want 2", len(fig.Series))
	}
	// y(α) must be nonincreasing.
	y := fig.Series[0].Points
	for i := 1; i < len(y); i++ {
		if y[i].Y > y[i-1].Y+1e-9 {
			t.Fatalf("y(alpha) increases at alpha=%.3f", y[i].X)
		}
	}
	// The GPU work fraction must peak in the paper's region and be ~52 %.
	w := fig.Series[1].Points
	bestX, bestY := 0.0, -1.0
	for _, p := range w {
		if p.Y > bestY {
			bestX, bestY = p.X, p.Y
		}
	}
	if bestX < 0.10 || bestX > 0.22 {
		t.Errorf("GPU work peaks at alpha=%.3f, want ~0.16", bestX)
	}
	if bestY < 47 || bestY > 57 {
		t.Errorf("peak GPU work = %.1f%%, want ~52%%", bestY)
	}
}

func TestFig4(t *testing.T) {
	tab, err := Fig4(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 5 {
		t.Fatalf("Fig4 shape = %dx%d, want 1x5", len(tab.Rows), len(tab.Rows[0]))
	}
	// The model's two numbers the division table has no cell for.
	notes := strings.Join(tab.Notes, "\n")
	for _, want := range []string{"levels 0..9 on the CPU, 10 and below on the GPU", "at (α*, y=9): 6.11x over one core"} {
		if !strings.Contains(notes, want) {
			t.Errorf("Fig4 notes lack %q:\n%s", want, notes)
		}
	}
}

func TestFig5Small(t *testing.T) {
	cfg := Fig5Config{MaxThreads: []int{6000, 2000}, Work: 1 << 26, Step: 64}
	fig, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("Fig5 series = %d, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) < 10 {
			t.Errorf("series %s has too few points: %d", s.Name, len(s.Points))
		}
	}
}

func TestFig6Small(t *testing.T) {
	cfg := Fig6Config{Sizes: [][]int{{1 << 20, 1 << 22}, {1 << 19, 1 << 21}}}
	fig, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ratios must sit near the platform γ values.
	for i, want := range []float64{160, 65} {
		for _, p := range fig.Series[i].Points {
			if p.Y < want*0.9 || p.Y > want*1.1 {
				t.Errorf("%s: ratio %g at size %g, want ≈%g",
					fig.Series[i].Name, p.Y, p.X, want)
			}
		}
	}
}

func smallSweep() SweepConfig {
	cfg := DefaultSweepConfig(hpu.HPU1())
	cfg.LogNs = []int{12, 14, 16}
	cfg.AlphaFactors = []float64{0.75, 1.0, 1.25}
	cfg.YOffsets = []int{0, 1}
	return cfg
}

func TestFig7Small(t *testing.T) {
	cfg := Fig7Config{
		Platform: hpu.HPU1(),
		LogN:     14,
		Alphas:   []float64{0.05, 0.15, 0.25, 0.35},
		Ys:       []int{5, 7, 9},
		Seed:     1,
	}
	fig, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("Fig7 series = %d, want 3", len(fig.Series))
	}
	best := 0.0
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y > best {
				best = p.Y
			}
		}
	}
	if best < 2 {
		t.Errorf("best Fig7 speedup = %.2f, want > 2", best)
	}
}

func TestFig8Small(t *testing.T) {
	fig, err := Fig8(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("Fig8 series = %d, want 3", len(fig.Series))
	}
	measured := fig.Series[0].Points
	if len(measured) != 3 {
		t.Fatalf("measured points = %d, want 3", len(measured))
	}
	// Speedup should grow with n over this range (before the cache
	// roll-off) and beat 2x at 2^16.
	if measured[len(measured)-1].Y < 2 {
		t.Errorf("speedup at largest size = %.2f, want > 2", measured[len(measured)-1].Y)
	}
	if measured[0].Y > measured[len(measured)-1].Y {
		t.Errorf("speedup not growing: %.2f at small vs %.2f at large",
			measured[0].Y, measured[len(measured)-1].Y)
	}
}

// TestFig8IDPerPlatform pins that the per-platform Fig 8 panels have their
// own IDs, so -outdir writes one file each.
func TestFig8IDPerPlatform(t *testing.T) {
	ids := map[string]bool{}
	for _, pl := range hpu.Platforms() {
		cfg := DefaultSweepConfig(pl)
		cfg.LogNs, cfg.AlphaFactors, cfg.YOffsets = []int{10}, []float64{1}, []int{0}
		fig, err := Fig8(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids[fig.ID] = true
	}
	if len(ids) != len(hpu.Platforms()) {
		t.Errorf("Fig8 IDs %v, want one per platform", ids)
	}
}

func TestFig9Small(t *testing.T) {
	cfg := Fig9Config{Platform: hpu.HPU1(), LogNs: []int{12, 16, 18}, Seed: 1}
	times, speedups, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(times.Series) != 3 || len(speedups.Series) != 2 {
		t.Fatalf("Fig9 series = %d/%d, want 3/2", len(times.Series), len(speedups.Series))
	}
	sortOnly := speedups.Series[0].Points
	withXfer := speedups.Series[1].Points
	for i := range sortOnly {
		if withXfer[i].Y > sortOnly[i].Y {
			t.Errorf("transfer made the GPU run faster at n=%g", sortOnly[i].X)
		}
	}
	// At the largest size the uniform kernel should be far ahead of 1 CPU.
	if last := sortOnly[len(sortOnly)-1].Y; last < 6 {
		t.Errorf("sort-only speedup at 2^18 = %.1f, want > 6", last)
	}
}

func TestFig10Small(t *testing.T) {
	alphaFig, levelFig, err := Fig10(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []Figure{alphaFig, levelFig} {
		if len(fig.Series) != 2 {
			t.Fatalf("%s series = %d, want 2", fig.ID, len(fig.Series))
		}
		if len(fig.Series[0].Points) != len(fig.Series[1].Points) {
			t.Fatalf("%s: obtained/predicted lengths differ", fig.ID)
		}
	}
	// Obtained α must stay within the searched neighborhood of predictions.
	for i, p := range alphaFig.Series[0].Points {
		pred := alphaFig.Series[1].Points[i].Y
		if p.Y < pred*0.5-1e-9 || p.Y > pred*1.5+1e-9 {
			t.Errorf("obtained alpha %.3f outside sweep range of prediction %.3f", p.Y, pred)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := MergesortSweep(SweepConfig{Platform: hpu.HPU1()}); err == nil {
		t.Error("MergesortSweep accepted empty config")
	}
	bad := smallSweep()
	bad.LogNs = []int{40}
	if _, err := MergesortSweep(bad); err == nil {
		t.Error("MergesortSweep accepted logN=40")
	}
}

func TestMultiGPUExperiment(t *testing.T) {
	cfg := MultiGPUConfig{
		Platform: hpu.HPU1(),
		LogNs:    []int{12, 14, 16},
		Devices:  []int{1, 2},
		Seed:     1,
	}
	fig, err := MultiGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: points = %d, want 3", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0.5 {
				t.Errorf("%s: speedup %.2f at n=%g implausibly low", s.Name, p.Y, p.X)
			}
		}
	}
	// Footnote 5: the second die should not bring a dramatic win.
	for i := range fig.Series[0].Points {
		one, two := fig.Series[0].Points[i].Y, fig.Series[1].Points[i].Y
		if two > 1.4*one {
			t.Errorf("dual-die speedup %.2f far exceeds single %.2f at n=%g",
				two, one, fig.Series[0].Points[i].X)
		}
	}
}

func TestAblationTable(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.LogN = 14
	tab, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("ablation rows = %d, want 7", len(tab.Rows))
	}
	if tab.Rows[0][2] != "1.00x" {
		t.Errorf("baseline speedup = %s, want 1.00x", tab.Rows[0][2])
	}
	speedup := func(row int) float64 {
		var v float64
		if _, err := fmt.Sscanf(tab.Rows[row][2], "%fx", &v); err != nil {
			t.Fatalf("parsing %q: %v", tab.Rows[row][2], err)
		}
		return v
	}
	bf, basic, adv, advRaw, dyn := speedup(1), speedup(2), speedup(3), speedup(4), speedup(5)
	if !(adv > basic && basic > 1 && bf > 1) {
		t.Errorf("ordering violated: bf=%.2f basic=%.2f advanced=%.2f", bf, basic, adv)
	}
	if advRaw >= adv {
		t.Errorf("coalescing did not help: %.2f vs %.2f", advRaw, adv)
	}
	if dyn >= adv {
		t.Errorf("dynamic scheduler (%.2f) beat the static advanced division (%.2f)", dyn, adv)
	}
	if _, err := Ablation(AblationConfig{Platform: hpu.HPU1(), LogN: 99}); err == nil {
		t.Error("Ablation accepted logN=99")
	}
}
