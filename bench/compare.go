package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the three cut points Python's statistics.quantiles(v,
// n=4) gives (its default, exclusive method), so spreads computed here match
// the ones the benchmark's bounds were set against. v needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := sortedCopy(v)
	n := len(x)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for a single run.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict applies one metric's bound to the parent's runs a and the change's
// runs b. worse is the share by which b's median is worse than a's
// (negative: better). A spread wider than the bound leaves the row
// unresolved, unless every run of b beats every run of a.
func verdict(m metricSpec, a, b []float64) (worse, spr float64, v string) {
	medA, medB := median(a), median(b)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if medA != 0 {
		worse = sign * (medB - medA) / medA
	}
	spr = max(spread(a), spread(b))
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
	switch {
	case spr > m.Bound && !allBetter:
		return worse, spr, "unresolved"
	case worse > m.Bound:
		return worse, spr, "REGRESSED"
	}
	return worse, spr, "ok"
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one end-to-end metric's values over a file's untraced runs
// of one workload.
func (f resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles prints one row per workload and end-to-end metric and fails
// when a row regressed.
func compareFiles(w io.Writer, spec benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (commit %s, %s)\nB: %s (commit %s, %s)\n", pathA, a.Commit, a.Time, pathB, b.Commit, b.Time)
	fmt.Fprintf(w, "%-20s %-18s %-8s %5s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "unit", "runs", "median A", "median B", "worse", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, spr, v := verdict(m, va, vb)
			counts[v]++
			fmt.Fprintf(w, "%-20s %-18s %-8s %2d/%-2d %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, m.Unit, len(va), len(vb), median(va), median(vb), 100*worse, 100*spr, 100*m.Bound, v)
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, counts[k])
	}
	fmt.Fprintln(w)
	if counts["REGRESSED"] > 0 {
		return errors.New("bench: a metric regressed beyond its bound")
	}
	return nil
}
