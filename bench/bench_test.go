package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The highest percentile reported is the highest with at least ten samples
// beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		got := tailQuantile(c.n)
		if got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := c.n - 1 - rank(c.n, got); got > 0.5 && beyond < 10 {
			t.Errorf("tailQuantile(%d) = %g leaves %d samples beyond it", c.n, got, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.1: 1, 0.5: 5, 0.9: 9, 0.95: 10, 1: 10} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

// The same seed gives the same due times; another seed gives others.
func TestPoissonSeeded(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 2000, time.Second)
	b := poisson(rand.New(rand.NewSource(7)), 2000, time.Second)
	c := poisson(rand.New(rand.NewSource(8)), 2000, time.Second)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if slices.Equal(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= time.Second {
		t.Error("due times are not ascending within the step")
	}
	// 2000 expected, standard deviation 45.
	if len(a) < 1750 || len(a) > 2250 {
		t.Errorf("%d sends in 1 s at 2000/s", len(a))
	}
}

// steady reads the fast state of a run that alternates between two.
func TestSteadyPicksTheUndisturbedState(t *testing.T) {
	var done []completion
	now := 0.0
	for i := 0; i < 6400; i++ {
		lat := 1.0 // ms: 1000 jobs/s
		if (i/400)%4 != 0 {
			lat = 1.6 // three quarters of the run are disturbed
		}
		now += lat / 1e3
		done = append(done, completion{endS: now, latMS: lat})
	}
	rate, p50 := steady(done)
	if rate < 990 || rate > 1010 || p50 != 1.0 {
		t.Errorf("steady = %.1f jobs/s, %.2f ms; want the fast state's 1000 jobs/s, 1 ms", rate, p50)
	}
	// Two classes of job: the latency is the geomean of the classes' own
	// medians, not the median of the mix.
	mixed := slices.Clone(done)
	for i, c := range done {
		mixed = append(mixed, completion{endS: c.endS, latMS: 100 * c.latMS, class: 1 + i%2})
	}
	if _, p50 := steady(mixed); p50 < 21.5 || p50 > 21.6 { // ∛(1·100·100)
		t.Errorf("steady of three classes at 1, 100 and 100 ms = %.2f ms, want their geomean 21.54", p50)
	}
	// Too few jobs for ten groups: the whole run.
	rate, p50 = steady(done[:40])
	if want := 40 / done[39].endS; rate != want || p50 != 1.0 {
		t.Errorf("steady of 40 jobs = %.1f jobs/s, %.2f ms; want the whole run's %.1f, 1 ms", rate, p50, want)
	}
	if got := steadyOf([]float64{9, 3, 5, 4, 8}); got != 3 {
		t.Errorf("steadyOf five timings = %g, want the fastest", got)
	}
}

// quartiles must be the cut points Python's statistics.quantiles(v, n=4)
// gives, because the bounds were set against spreads computed that way.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{98, 100, 100, 102, 100, 100, 100, 100, 100, 100}); got != 0 {
		t.Errorf("spread with 8 of 10 equal = %g, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.05}
	steadyA := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steadyA, []float64{100, 100, 101, 99, 100}, "ok"},
		{"within the bound", lower, steadyA, []float64{104, 104, 103, 104, 104}, "ok"},
		{"latency up 10 %", lower, steadyA, []float64{110, 111, 109, 110, 110}, "REGRESSED"},
		{"latency down 10 %", lower, steadyA, []float64{90, 91, 89, 90, 90}, "ok"},
		{"rate down 10 %", higher, steadyA, []float64{90, 91, 89, 90, 90}, "REGRESSED"},
		{"rate up 10 %", higher, steadyA, []float64{110, 111, 109, 110, 110}, "ok"},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{100, 100, 100, 100, 100}, "unresolved"},
		{"wide spread, yet every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{70, 60, 75, 65, 70}, "ok"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec := benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}},
	}
	file := func(name string, vals ...float64) string {
		f := newResultFile()
		for _, v := range vals {
			f.Runs = append(f.Runs, runRecord{Workload: "w", Metrics: map[string]metricValue{"jobs_per_s": {Value: v, Unit: "1/s"}}})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := file("a.json", 100, 101, 99), file("same.json", 100, 100, 101), file("slower.json", 80, 81, 79)
	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, same); err != nil {
		t.Errorf("A/A compare failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, slower); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 20 %% loss passed the compare: %v\n%s", err, out.String())
	}
}

// A --quick pass of every workload, untraced and traced: outputs verified,
// the last line in the driver's format, and the program and BENCHMARK.json
// agreeing on every metric name.
func TestQuickPass(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{spec: spec, quick: true, traceOut: filepath.Join(t.TempDir(), "trace.json")}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %s, which the program does not have", w.Name)
		}
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			rec, err := r.measure(w.Name, 1, 0.2, trace)
			if err != nil {
				t.Fatalf("%s, trace %d: %v", w.Name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s, trace %d: correct %v, attempted %d, failed %d", w.Name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s, trace %d: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rec.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s, trace %d: metric %s missing or in unit %q, want %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, m.Name, v.Value)
				}
			}
			for _, n := range rec.measured {
				measured[n] = true
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("the program has %d workloads, BENCHMARK.json names %d", len(workloads), len(spec.Workloads))
	}
}

// The command-line path: one workload, the result as the last line with
// exactly the driver's keys, and a result file stamped with the environment.
func TestRunPrintsTheDriversLine(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"--quick", "--workload", "serve-open", "--seed", "3", "--seconds", "0.2", "--trace", "0",
		"--spec", "../BENCHMARK.json", "--out", out, "--trace-out", filepath.Join(dir, "trace.json")}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("last line has keys %v", keys)
	}
	f, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 1 || f.Runs[0].Seed != 3 || f.GoVersion == "" || f.GOMAXPROCS < 1 || f.NumCPU < 1 || f.Commit == "" {
		t.Errorf("result file is not stamped: %+v", f)
	}

	if err := run([]string{"--workload", "no-such", "--spec", "../BENCHMARK.json"}, &stdout, &stderr); err == nil {
		t.Error("an unknown workload ran")
	}
}
