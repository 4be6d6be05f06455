// Command hpubench regenerates every table and figure of the paper's
// evaluation on the simulated HPU platforms, and the paper-vs-measured table
// that heads EXPERIMENTS.md (-exp report).
//
// Usage:
//
//	hpubench [-exp all|NAME[,NAME...]] [-platform HPU1|HPU2] [-logn N]
//	         [-quick] [-points] [-outdir DIR]
//
// hpubench -h lists the experiment names. By default paper-scale inputs are
// used (n up to 2^24 for mergesort figures); -quick caps sizes at 2^18 for a
// fast smoke run. -points prints raw (x, y) series data after each chart,
// suitable for re-plotting. Tables print as Markdown.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/ascii"
	"repro/internal/exp"
	"repro/internal/export"
	"repro/internal/hpu"
	"repro/internal/stats"
)

// experiments are the -exp names, in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(*runner) error
}{
	{"table1", (*runner).table1},
	{"table2", (*runner).table2},
	{"fig3", (*runner).fig3},
	{"fig4", (*runner).fig4},
	{"fig5", (*runner).fig5},
	{"fig6", (*runner).fig6},
	{"fig7", (*runner).fig7},
	{"fig8", (*runner).fig8},
	{"fig9", (*runner).fig9},
	{"fig10", (*runner).fig10},
	{"ablation", (*runner).ablation},
	{"multigpu", (*runner).multigpu},
	{"report", (*runner).report},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	list := strings.Join(names, ", ")
	var (
		expName  = flag.String("exp", "all", "comma-separated experiments to run: all, or any of "+list)
		platform = flag.String("platform", "HPU1", "platform for single-platform figures (HPU1 or HPU2)")
		logN     = flag.Int("logn", 0, "override input size exponent for fig3, fig4, fig7, ablation and the report's sweeps")
		quick    = flag.Bool("quick", false, "cap sweep sizes at 2^18 for a fast run")
		points   = flag.Bool("points", false, "print raw series points after each figure")
		outDir   = flag.String("outdir", "", "also write each artifact as CSV and JSON into this directory")
	)
	flag.Parse()

	pl, ok := hpu.ByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "hpubench: unknown platform %q (want HPU1 or HPU2)\n", *platform)
		os.Exit(2)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hpubench: %v\n", err)
			os.Exit(1)
		}
	}
	r := &runner{platform: pl, logN: *logN, quick: *quick, points: *points, outDir: *outDir}

	toRun := names
	if *expName != "all" {
		toRun = strings.Split(*expName, ",")
	}
	for _, name := range toRun {
		if !slices.Contains(names, name) {
			fmt.Fprintf(os.Stderr, "hpubench: unknown experiment %q (want all or any of %s)\n", name, list)
			os.Exit(2)
		}
	}
	for _, name := range toRun {
		if err := experiments[slices.Index(names, name)].run(r); err != nil {
			fmt.Fprintf(os.Stderr, "hpubench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

type runner struct {
	platform hpu.Platform
	logN     int
	quick    bool
	points   bool
	outDir   string
}

// save writes an artifact in the given format, reporting failures to stderr
// without aborting the run.
func (r *runner) save(name string, write func(io.Writer) error) {
	path := filepath.Join(r.outDir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpubench: %v\n", err)
		return
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpubench: writing %s: %v\n", path, err)
	}
}

func (r *runner) header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n\n", strings.ToUpper(id), title)
}

func (r *runner) printTable(t exp.Table) {
	r.header(t.ID, t.Title)
	fmt.Print(ascii.RenderTable(t.Columns, t.Rows))
	for _, n := range t.Notes {
		fmt.Printf("note: %s\n", n)
	}
	if r.outDir != "" {
		r.save(t.ID+".csv", func(w io.Writer) error { return export.WriteTableCSV(w, t) })
		r.save(t.ID+".json", func(w io.Writer) error { return export.WriteTableJSON(w, t) })
	}
}

func (r *runner) printFigure(f exp.Figure) {
	r.header(f.ID, f.Title)
	names := make([]string, len(f.Series))
	pts := make([][]stats.Point, len(f.Series))
	for i, s := range f.Series {
		names[i] = s.Name
		pts[i] = s.Points
	}
	ch := ascii.DefaultChart()
	ch.LogX = f.LogX
	fmt.Print(ch.RenderSeries(names, pts))
	fmt.Printf("x: %s    y: %s\n", f.XLabel, f.YLabel)
	for _, n := range f.Notes {
		fmt.Printf("note: %s\n", n)
	}
	if r.points {
		for _, s := range f.Series {
			fmt.Printf("\n# %s\n", s.Name)
			for _, p := range s.Points {
				fmt.Printf("%g\t%g\n", p.X, p.Y)
			}
		}
	}
	if r.outDir != "" {
		r.save(f.ID+".csv", func(w io.Writer) error { return export.WriteFigureCSV(w, f) })
		r.save(f.ID+".json", func(w io.Writer) error { return export.WriteFigureJSON(w, f) })
	}
}

// size returns the figure input exponent honoring -logn and -quick.
func (r *runner) size(def int) int {
	n := def
	if r.logN > 0 {
		n = r.logN
	}
	if r.quick && n > 18 {
		n = 18
	}
	return n
}

// sweepSizes trims a size list under -quick.
func (r *runner) sweepSizes(sizes []int) []int {
	if !r.quick {
		return sizes
	}
	var out []int
	for _, s := range sizes {
		if s <= 18 {
			out = append(out, s)
		}
	}
	return out
}

func (r *runner) table1() error {
	r.printTable(exp.Table1())
	return nil
}

func (r *runner) table2() error {
	t, err := exp.Table2()
	if err != nil {
		return err
	}
	r.printTable(t)
	return nil
}

func (r *runner) fig3() error {
	cfg := exp.DefaultFig3Config()
	cfg.Platform = r.platform
	cfg.LogN = r.size(cfg.LogN)
	fig, err := exp.Fig3(cfg)
	if err != nil {
		return err
	}
	r.printFigure(fig)
	return nil
}

func (r *runner) fig4() error {
	cfg := exp.DefaultFig3Config()
	cfg.Platform = r.platform
	cfg.LogN = r.size(cfg.LogN)
	t, err := exp.Fig4(cfg)
	if err != nil {
		return err
	}
	r.printTable(t)
	return nil
}

func (r *runner) fig5() error {
	fig, err := exp.Fig5(exp.DefaultFig5Config())
	if err != nil {
		return err
	}
	r.printFigure(fig)
	return nil
}

func (r *runner) fig6() error {
	fig, err := exp.Fig6(exp.DefaultFig6Config())
	if err != nil {
		return err
	}
	r.printFigure(fig)
	return nil
}

func (r *runner) fig7() error {
	cfg := exp.DefaultFig7Config()
	cfg.Platform = r.platform
	cfg.LogN = r.size(cfg.LogN)
	fig, err := exp.Fig7(cfg)
	if err != nil {
		return err
	}
	r.printFigure(fig)
	return nil
}

func (r *runner) sweepConfig() exp.SweepConfig {
	cfg := exp.DefaultSweepConfig(r.platform)
	cfg.LogNs = r.sweepSizes(cfg.LogNs)
	return cfg
}

func (r *runner) fig8() error {
	// The paper shows Fig 8 for both platforms side by side.
	for _, pl := range hpu.Platforms() {
		cfg := exp.DefaultSweepConfig(pl)
		cfg.LogNs = r.sweepSizes(cfg.LogNs)
		fig, err := exp.Fig8(cfg)
		if err != nil {
			return err
		}
		r.printFigure(fig)
	}
	return nil
}

func (r *runner) fig9() error {
	cfg := exp.DefaultFig9Config()
	cfg.LogNs = r.sweepSizes(cfg.LogNs)
	times, speedups, err := exp.Fig9(cfg)
	if err != nil {
		return err
	}
	times.LogX = true
	r.printFigure(times)
	r.printFigure(speedups)
	return nil
}

func (r *runner) ablation() error {
	cfg := exp.DefaultAblationConfig()
	cfg.Platform = r.platform
	cfg.LogN = r.size(cfg.LogN)
	t, err := exp.Ablation(cfg)
	if err != nil {
		return err
	}
	r.printTable(t)
	return nil
}

func (r *runner) multigpu() error {
	cfg := exp.DefaultMultiGPUConfig()
	cfg.Platform = r.platform
	cfg.LogNs = r.sweepSizes(cfg.LogNs)
	fig, err := exp.MultiGPU(cfg)
	if err != nil {
		return err
	}
	r.printFigure(fig)
	return nil
}

func (r *runner) fig10() error {
	alphaFig, levelFig, err := exp.Fig10(r.sweepConfig())
	if err != nil {
		return err
	}
	r.printFigure(alphaFig)
	r.printFigure(levelFig)
	return nil
}

func (r *runner) report() error {
	t, err := exp.Report(r.size(24))
	if err != nil {
		return err
	}
	r.printTable(t)
	return nil
}
