//go:build ignore

// Command benchab runs BENCHMARK.json workloads as alternating pairs of a
// base commit and the working tree, the way a performance claim has to be
// reported: the same seeds on both sides, the side that goes first swapping
// every pair (so neither side always gets the warmer or the noisier half of
// a pair), every run kept, and the repository's own --compare as the verdict.
// Several workloads (a comma-separated list, or "all") run back to back
// inside each pair, so the claimed row and the rows that should not move come
// from the same minutes of the same host.
//
//	make bench-ab BASE=<ref> WORKLOAD=<w>[,<w>...]|all [PAIRS=10] [SECONDS=<s>] [SEED=1] [TRACE=0]
//	go run scripts/benchab.go -base <ref> -workload <w>[,<w>...]|all [-pairs 10] ...
//
// BASE is unpacked with git archive into .bench_build/ab/base (nothing to
// register in .git, nothing for a killed run to leave registered) and removed
// again at exit; each side is built from its own source by its own
// bench/run.sh. Results: .bench_build/ab/base.json and change.json (every
// run of each side merged into one result file) plus one file per run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// resultFile keeps every field of a result file as it is and decodes only
// what the pair table reads.
type resultFile map[string]json.RawMessage

type runRecord struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one of the two checkouts and the runs made in it.
type side struct {
	name, root string
	merged     resultFile
	runs       []json.RawMessage
	records    []runRecord
}

// bench runs the side's bench/run.sh with args, from the side's root.
func (s *side) bench(quiet bool, args ...string) error {
	cmd := exec.Command("bash", append([]string{filepath.Join(s.root, "bench", "run.sh")}, args...)...)
	cmd.Dir = s.root
	cmd.Stderr = os.Stderr
	if !quiet {
		cmd.Stdout = os.Stdout
	}
	return cmd.Run()
}

// measure makes one run and folds its result file into the side's.
func (s *side) measure(out string, args []string) error {
	if err := s.bench(true, append(args, "--out", out)...); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	var f resultFile
	if err := readJSON(out, &f); err != nil {
		return err
	}
	var runs []json.RawMessage
	if err := json.Unmarshal(f["runs"], &runs); err != nil || len(runs) != 1 {
		return fmt.Errorf("%s: want one run, got %d (%v)", out, len(runs), err)
	}
	var rec runRecord
	if err := json.Unmarshal(runs[0], &rec); err != nil {
		return fmt.Errorf("%s: %w", out, err)
	}
	if s.merged == nil {
		s.merged = f
	}
	s.runs, s.records = append(s.runs, runs[0]), append(s.records, rec)
	return nil
}

func (s *side) write(path string) error {
	runs, err := json.Marshal(s.runs)
	if err != nil {
		return err
	}
	s.merged["runs"] = runs
	raw, err := json.MarshalIndent(s.merged, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// quartiles cuts the way bench/compare.go does (the exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// pairTable prints, per end-to-end metric of one workload, what a claim is
// judged on: pairs won, both medians and the parent's interquartile range.
func pairTable(workload string, metrics []metricSpec, base, change *side) {
	fmt.Printf("\n%s\n%-18s %-8s %9s %14s %14s %9s %14s\n", workload, "metric", "unit", "pairs won", "median base", "median change", "change", "IQR of base")
	failed, wrong := 0, 0
	for _, m := range metrics {
		var a, b []float64
		wins, ties := 0, 0
		for i := range base.records {
			if base.records[i].Workload != workload {
				continue
			}
			va, vb := base.records[i].Metrics[m.Name].Value, change.records[i].Metrics[m.Name].Value
			a, b = append(a, va), append(b, vb)
			switch {
			case va == vb:
				ties++
			case (vb > va) == (m.Better == "higher"):
				wins++
			}
		}
		q1, medA, q3 := quartiles(a)
		_, medB, _ := quartiles(b)
		rel := 0.0
		if medA != 0 {
			rel = 100 * (medB - medA) / medA
		}
		fmt.Printf("%-18s %-8s %6d/%-2d %14.6g %14.6g %+8.1f%% %14.6g\n",
			m.Name, m.Unit, wins, len(a)-ties, medA, medB, rel, q3-q1)
	}
	for _, s := range []*side{base, change} {
		for _, r := range s.records {
			if r.Workload != workload {
				continue
			}
			failed += r.Failed
			if !r.Correct {
				wrong++
			}
		}
	}
	fmt.Printf("failed jobs over all runs: %d; runs with a wrong result: %d\n", failed, wrong)
}

// unpack extracts ref's tree into dir and returns the commit it names.
func unpack(root, ref, dir string) (string, error) {
	rev, err := exec.Command("git", "-C", root, "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("benchab: %s is not a commit: %w", ref, err)
	}
	commit := strings.TrimSpace(string(rev))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "-C", root, "archive", "--format=tar", commit)
	untar := exec.Command("tar", "-x", "-C", dir)
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", err
	}
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := errors.Join(archive.Run(), untar.Wait()); err != nil {
		return "", fmt.Errorf("benchab: unpack %s: %w", ref, err)
	}
	return commit, nil
}

func run() error {
	baseRef := flag.String("base", "", "the commit to compare against (required)")
	workload := flag.String("workload", "", "the BENCHMARK.json workloads to run: one name, a comma-separated list, or all (required)")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seconds := flag.String("seconds", "", "seconds one run measures (default: the benchmark's run_seconds)")
	seed := flag.Int("seed", 1, "seed of pair 1; pair i uses seed+i-1 on both sides")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced runs (per-layer metrics, not compared)")
	flag.Parse()
	if *baseRef == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		return errors.New("benchab: -base and -workload are required")
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("benchab: not in a git checkout: %w", err)
	}
	root := strings.TrimSpace(string(top))
	dir := filepath.Join(root, ".bench_build", "ab")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	var known []string
	for _, w := range spec.Workloads {
		known = append(known, w.Name)
	}
	workloads := strings.Split(*workload, ",")
	if *workload == "all" {
		workloads = known
	}
	for _, w := range workloads {
		if !slices.Contains(known, w) {
			return fmt.Errorf("benchab: no workload %q in BENCHMARK.json (have %s)", w, strings.Join(known, ", "))
		}
	}

	baseDir := filepath.Join(dir, "base")
	os.RemoveAll(baseDir) // left by a killed run
	defer os.RemoveAll(baseDir)
	baseCommit, err := unpack(root, *baseRef, baseDir)
	if err != nil {
		return err
	}

	base, change := &side{name: "base", root: baseDir}, &side{name: "change", root: root}
	for _, s := range []*side{base, change} {
		fmt.Printf("building %s (%s)\n", s.name, s.root)
		if err := s.bench(true, "--workload", workloads[0], "--quick", "--seconds", "1",
			"--out", filepath.Join(dir, "build-"+s.name+".json")); err != nil {
			return fmt.Errorf("benchab: build %s: %w", s.name, err)
		}
	}
	for i := 0; i < *pairs; i++ {
		order := []*side{base, change}
		if i%2 == 1 {
			order = []*side{change, base}
		}
		for _, w := range workloads {
			args := []string{"--workload", w, "--seed", strconv.Itoa(*seed + i), "--trace", strconv.Itoa(*trace),
				"--trace-out", filepath.Join(dir, "trace.json")}
			if *seconds != "" {
				args = append(args, "--seconds", *seconds)
			}
			for _, s := range order {
				out := filepath.Join(dir, fmt.Sprintf("%s-%s-%02d.json", s.name, w, i+1))
				if err := s.measure(out, args); err != nil {
					return err
				}
			}
			last := len(base.records) - 1
			fmt.Printf("pair %2d %-20s (%s first):", i+1, w, order[0].name)
			for _, m := range spec.EndToEnd[:min(4, len(spec.EndToEnd))] {
				fmt.Printf("  %s %.4g → %.4g", m.Name, base.records[last].Metrics[m.Name].Value, change.records[last].Metrics[m.Name].Value)
			}
			fmt.Println()
		}
	}
	// The base was built outside a checkout of its own, so its binary could
	// not stamp the commit into its result files.
	if base.merged["commit"], err = json.Marshal(baseCommit); err != nil {
		return err
	}
	baseOut, changeOut := filepath.Join(dir, "base.json"), filepath.Join(dir, "change.json")
	if err := errors.Join(base.write(baseOut), change.write(changeOut)); err != nil {
		return err
	}
	if *trace != 0 {
		fmt.Printf("traced runs written to %s and %s (--compare reads untraced runs only)\n", baseOut, changeOut)
		return nil
	}
	for _, w := range workloads {
		pairTable(w, spec.EndToEnd, base, change)
	}
	fmt.Println()
	return change.bench(false, "--compare", baseOut, changeOut)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
