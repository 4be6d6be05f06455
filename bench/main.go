// Command bench is the repository's benchmark: five named workloads over the
// HPU library, the simulator and the serving stack, every result verified
// against plain Go, reporting the end-to-end and per-layer metrics that
// BENCHMARK.json names. README.md in this directory defines every name.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	bash bench/run.sh [--runs R] [--trace 0|1]                        all five workloads, as a table
//	bash bench/run.sh --compare A.json B.json                         apply the bounds to two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: it emits
// exactly the metrics the file names, with the file's units, and --compare
// applies the file's bounds.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload as the result file keeps it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes"`

	measured []string // every metric the run produced, reported or not
}

// resultFile is what --out receives and --compare reads.
type resultFile struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"nproc"`
	Time       string      `json:"time"`
	Runs       []runRecord `json:"runs"`
}

func newResultFile() resultFile {
	f := resultFile{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	return f
}

// runner carries one invocation's settings.
type runner struct {
	spec     benchSpec
	quick    bool
	traceOut string
}

// setupAndRun builds a workload, runs it once and tears it down. With
// repeat, it first sets up and tears down again and again — at least three
// times, and until setupBudget is spent, so that a set-up of milliseconds
// is timed often enough for a steady median — and returns the median
// set-up time.
func (r *runner) setupAndRun(name string, cfg config, seconds float64, repeat bool) (outcome, float64, error) {
	const setupBudget = 2.0 // seconds
	var b bench
	var took []float64
	spent := 0.0
	for i := 0; i == 0 || (repeat && (i < 3 || spent < setupBudget)); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return outcome{}, 0, err
			}
		}
		b = workloads[name](cfg)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return outcome{}, 0, errors.Join(err, b.close())
		}
		took = append(took, time.Since(t0).Seconds())
		spent += took[i]
	}
	o, err := b.run(seconds)
	return o, median(took), errors.Join(err, b.close())
}

// measure makes one run of one workload. Untraced, it reports the
// end-to-end metrics, setting up repeatedly for a steady setup_s. Traced,
// it spends the same time on an untraced reference slice, a traced slice
// with spans and registries on, and the layer probes, and reports the
// per-layer metrics; what can be measured untraced comes from the reference
// slice.
func (r *runner) measure(name string, seed int64, seconds float64, trace int) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]metricValue{}}
	cfg := config{seed: seed, quick: r.quick}
	var want []metricSpec
	var got map[string]float64
	var wrong int

	if trace == 0 {
		o, setupS, err := r.setupAndRun(name, cfg, seconds, !r.quick)
		if err != nil {
			return rec, err
		}
		o.set("setup_s", setupS)
		want, got = r.spec.EndToEnd, o.metrics
		rec.Attempted, rec.Failed, rec.Notes, wrong = o.attempted, o.failed, o.notes, o.wrong
	} else {
		ref, _, err := r.setupAndRun(name, cfg, 0.3*seconds, false)
		if err != nil {
			return rec, err
		}
		cfg.tr = newTracer()
		peak := heapWatch()
		tr, _, err := r.setupAndRun(name, cfg, 0.4*seconds, false)
		peakMB := peak()
		if err != nil {
			return rec, err
		}
		got = runProbes(r.quick)
		for k, v := range tr.metrics {
			got[k] = v
		}
		for k, v := range ref.metrics {
			got[k] = v
		}
		got["peak_heap_mb"] = peakMB
		got["trace.overhead_share"] = 1 - tr.metrics["jobs_per_s"]/ref.metrics["jobs_per_s"]
		want = r.spec.PerLayer
		rec.Attempted, rec.Failed, wrong = ref.attempted+tr.attempted, ref.failed+tr.failed, ref.wrong+tr.wrong
		rec.Notes = append(append(ref.notes, "traced slice:"), tr.notes...)
		if r.traceOut != "" {
			if err := cfg.tr.write(r.traceOut); err != nil {
				return rec, err
			}
		}
	}
	// The program and BENCHMARK.json must agree on the names: whatever a
	// workload measures is in the file, and every end-to-end metric is
	// measured by every workload. A per-layer metric the workload does not
	// exercise reads 0.
	named := map[string]bool{}
	for _, m := range append(slices.Clone(r.spec.EndToEnd), r.spec.PerLayer...) {
		named[m.Name] = true
	}
	for n := range got {
		if !named[n] {
			return rec, fmt.Errorf("bench: workload %s measured %s, which BENCHMARK.json does not name", name, n)
		}
		rec.measured = append(rec.measured, n)
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && trace == 0 {
			return rec, fmt.Errorf("bench: workload %s did not produce %s", name, m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rec.Correct = wrong == 0
	return rec, nil
}

func (rec runRecord) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (seed %d, %.0f s, trace %d): attempted %d, failed %d, correct %v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print its result as the last line (default: all five, as a table)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of the spec)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	runs := fs.Int("runs", 1, "with all workloads: repeat the pass, seeds seed, seed+1, ...")
	quick := fs.Bool("quick", false, "shrunken sizes, for the unit test")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's definition")
	out := fs.String("out", "bench/out/result.json", "result file")
	traceOut := fs.String("trace-out", "bench/out/trace.json", "span file of a traced run")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("bench: --compare takes two result files")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("bench: --trace is 0 or 1")
	}
	r := &runner{spec: spec, quick: *quick, traceOut: *traceOut}
	file := newResultFile()

	if *workload != "" {
		if workloads[*workload] == nil {
			return fmt.Errorf("bench: unknown workload %q", *workload)
		}
		rec, err := r.measure(*workload, *seed, *seconds, *trace)
		if err != nil {
			return err
		}
		rec.print(stdout)
		file.Runs = append(file.Runs, rec)
		if err := writeJSON(*out, file); err != nil {
			return err
		}
		line, err := json.Marshal(map[string]any{
			"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			return errors.New("bench: a result differed from the plain-Go reference")
		}
		return nil
	}

	correct := true
	for i := 0; i < *runs; i++ {
		for _, w := range spec.Workloads {
			rec, err := r.measure(w.Name, *seed+int64(i), *seconds, *trace)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			rec.print(stdout)
			correct = correct && rec.Correct
			file.Runs = append(file.Runs, rec)
		}
	}
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", *out)
	if !correct {
		return errors.New("bench: a result differed from the plain-Go reference")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}
