package exp

import (
	"context"
	"fmt"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/workload"
)

// AblationConfig parameterizes the strategy-comparison table (not a paper
// artifact; it isolates the design choices DESIGN.md §6 calls out).
type AblationConfig struct {
	Platform hpu.Platform
	LogN     int
	Seed     int64
	// Alpha and Y are the advanced division's parameters; negative means
	// model-optimal.
	Alpha float64
	Y     int
}

// DefaultAblationConfig compares strategies at n = 2^20 on HPU1.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Platform: hpu.HPU1(), LogN: 20, Seed: 1, Alpha: -1, Y: -1}
}

// Ablation runs every execution strategy on one instance and tabulates
// makespan and speedup over the 1-core recursive baseline.
func Ablation(cfg AblationConfig) (Table, error) {
	if cfg.LogN < 4 || cfg.LogN > 30 {
		return Table{}, fmt.Errorf("exp: ablation logN %d out of range [4,30]", cfg.LogN)
	}
	n := 1 << cfg.LogN
	in := workload.Uniform(n, cfg.Seed)

	alpha, y := cfg.Alpha, cfg.Y
	if alpha < 0 || y < 0 {
		pa, py, _, err := predictedOptimum(cfg.Platform, cfg.LogN)
		if err != nil {
			return Table{}, err
		}
		if alpha < 0 {
			alpha = pa
		}
		if y < 0 {
			y = py
		}
	}

	seq, err := sequentialMergesort(cfg.Platform, in)
	if err != nil {
		return Table{}, err
	}

	type result struct {
		name    string
		seconds float64
	}
	var results []result
	add := func(name string, seconds float64) {
		results = append(results, result{name, seconds})
	}
	add("sequential 1-core (baseline)", seq)

	fresh := func() (*hpu.Sim, *mergesort.Sorter, error) {
		be, err := hpu.NewSim(cfg.Platform)
		if err != nil {
			return nil, nil, err
		}
		s, err := mergesort.New(in)
		return be, s, err
	}
	check := func(s *mergesort.Sorter, name string) error {
		if !workload.IsSorted(s.Result()) {
			return fmt.Errorf("exp: ablation %s produced unsorted output", name)
		}
		return nil
	}

	{
		be, s, err := fresh()
		if err != nil {
			return Table{}, err
		}
		rep, err := core.RunBreadthFirstCPUCtx(context.Background(), be, s)
		if err != nil {
			return Table{}, err
		}
		if err := check(s, "bf-cpu"); err != nil {
			return Table{}, err
		}
		add(fmt.Sprintf("breadth-first CPU (%d cores)", cfg.Platform.CPU.Cores), rep.Seconds)
	}
	{
		be, s, err := fresh()
		if err != nil {
			return Table{}, err
		}
		x := clampY(y+1, cfg.LogN) // the basic crossover sits near y
		rep, err := core.RunBasicHybridCtx(context.Background(), be, s, x, core.WithCoalesce())
		if err != nil {
			return Table{}, err
		}
		if err := check(s, "basic"); err != nil {
			return Table{}, err
		}
		add(fmt.Sprintf("basic hybrid (crossover %d)", x), rep.Seconds)
	}
	for _, coalesce := range []bool{true, false} {
		be, s, err := fresh()
		if err != nil {
			return Table{}, err
		}
		var opts []core.Option
		if coalesce {
			opts = append(opts, core.WithCoalesce())
		}
		rep, err := core.RunAdvancedHybridCtx(context.Background(), be, s, alpha, y, opts...)
		if err != nil {
			return Table{}, err
		}
		if err := check(s, "advanced"); err != nil {
			return Table{}, err
		}
		name := fmt.Sprintf("advanced hybrid (α=%.2f, y=%d)", alpha, y)
		if !coalesce {
			name += " no coalescing"
		}
		add(name, rep.Seconds)
	}
	{
		be, s, err := fresh()
		if err != nil {
			return Table{}, err
		}
		rep, err := core.RunDynamicHybridCtx(context.Background(), be, s)
		if err != nil {
			return Table{}, err
		}
		if err := check(s, "dynamic"); err != nil {
			return Table{}, err
		}
		add("dynamic per-level (StarPU-style)", rep.Seconds)
	}
	{
		be, err := hpu.NewSim(cfg.Platform)
		if err != nil {
			return Table{}, err
		}
		s, err := mergesort.NewParallel(in)
		if err != nil {
			return Table{}, err
		}
		rep, err := core.RunGPUOnlyCtx(context.Background(), be, s)
		if err != nil {
			return Table{}, err
		}
		if !workload.IsSorted(s.Result()) {
			return Table{}, fmt.Errorf("exp: gpu-only ablation unsorted")
		}
		add("gpu-only parallel merge (incl. transfer)", rep.Seconds)
	}

	t := Table{
		ID: "ablation",
		Title: fmt.Sprintf("Strategy ablation: mergesort n=2^%d on %s",
			cfg.LogN, cfg.Platform.Name),
		Columns: []string{"strategy", "time (s)", "speedup"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%.4f", r.seconds),
			fmt.Sprintf("%.2fx", seq/r.seconds),
		})
	}
	return t, nil
}
