package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	. "repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/workload"
)

// noSegments hides everything of a backend but the Backend methods, so the
// executors find no SegmentAllocator (and no Unwrapper to look behind): the
// golden rows of a platform that does not pool device memory.
type noSegments struct{ Backend }

// fusedMemberSpec builds one member of a golden group: the instance and a
// hash of its output (nil for the probe, whose events are hashed instead).
type fusedMemberSpec func(t *testing.T) (GPUAlg, func() uint64)

func probeMember(a, L int) fusedMemberSpec {
	return func(*testing.T) (GPUAlg, func() uint64) { return permProbe{newProbe(a, L)}, nil }
}

// algMember builds member i of a group of one of the served algorithms over
// its own 2^logN uniform keys.
func algMember(name string, logN, i int) fusedMemberSpec {
	return func(t *testing.T) (GPUAlg, func() uint64) {
		in := workload.Uniform(1<<logN, int64(20+i))
		switch name {
		case "mergesort":
			s, err := mergesort.New(in)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() uint64 { return hashValues(s.Result()) }
		case "scan":
			s, err := scan.New(in)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() uint64 { return hashValues(s.Result()) }
		case "dcsum":
			s, err := dcsum.New(in)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() uint64 { return hashValues([]int64{s.Result()}) }
		}
		panic("unknown algorithm " + name)
	}
}

// fusedGoldenRow runs one group through RunFusedGPUCtx under the plan
// recorder and renders its golden line: the strategy, the number of hashed
// lines and their hash — every platform call with its virtual time, then per
// member the probe's events or the output hash and the report's two times to
// 17 digits — and, readable beside the hash, the latest member's Seconds.
func fusedGoldenRow(t *testing.T, key string, p hpu.Platform, specs []fusedMemberSpec, coalesce, segments bool) goldenResult {
	algs := make([]GPUAlg, len(specs))
	outs := make([]func() uint64, len(specs))
	for i, spec := range specs {
		algs[i], outs[i] = spec(t)
	}
	rec := newPlanRecorder(hpu.MustSim(p))
	var be Backend = rec
	if !segments {
		be = noSegments{rec}
	}
	var opts []Option
	if coalesce {
		opts = append(opts, WithCoalesce())
	}
	reps, err := RunFusedGPUCtx(context.Background(), be, algs, opts...)
	if err != nil {
		return goldenResult{fmt.Sprintf("%s | error: %v", key, err), rec.lines}
	}
	lines := rec.lines
	last := 0.0
	for m, rep := range reps {
		if probe, ok := algs[m].(permProbe); ok {
			for _, e := range probe.events {
				lines = append(lines, fmt.Sprintf("m%d %s@%d[%d,%d)", m, e.phase, e.level, e.lo, e.hi))
			}
		} else {
			lines = append(lines, fmt.Sprintf("m%d out=%016x", m, outs[m]()))
		}
		lines = append(lines, fmt.Sprintf("m%d %s %s partial=%v sec=%.17g cpu=%.17g gpu=%.17g",
			m, rep.Algorithm, rep.Strategy, rep.Partial, rep.Seconds, rep.CPUPortionSeconds, rep.GPUPortionSeconds))
		last = max(last, rep.Seconds)
		ReleaseAlg(algs[m])
	}
	return goldenResult{
		fmt.Sprintf("%s | %s %d %016x sec=%.17g", key, reps[0].Strategy, len(lines), hashLines(lines), last),
		lines,
	}
}

// fusedGoldenRows is the fused executor's golden matrix. Structure: probe
// groups of k ∈ {1, 2, 3, 5, 8} members — all of one tree, or cycling through
// the three probe trees (a mixed group mixes depths 6/4/3 and arities 2/3/8)
// — with and without WithCoalesce and with and without a segment allocator.
// Numbers: mergesort, scan, dcsum and mixed-algorithm groups of equal and
// mixed sizes on both platforms.
func fusedGoldenRows(t *testing.T) []goldenResult {
	var rows []goldenResult
	onOff := []bool{false, true}
	ks := []int{1, 2, 3, 5, 8}

	trees := []struct{ a, L int }{{2, 6}, {3, 4}, {8, 3}}
	shapes := []string{"a=2 L=6", "a=3 L=4", "a=8 L=3", "mixed", "mixed-rev"}
	for si, shape := range shapes {
		for _, k := range ks {
			specs := make([]fusedMemberSpec, k)
			for i := range specs {
				tree := trees[min(si, 2)]
				switch shape {
				case "mixed":
					tree = trees[i%3]
				case "mixed-rev": // shallow members first: the deepest one is in the second chunk
					tree = trees[2-i%3]
				}
				specs[i] = probeMember(tree.a, tree.L)
			}
			for _, co := range onOff {
				for _, seg := range onOff {
					key := fmt.Sprintf("fused probe %s k=%d co=%d seg=%d", shape, k, b2i(co), b2i(seg))
					rows = append(rows, fusedGoldenRow(t, key, hpu.HPU1(), specs, co, seg))
				}
			}
		}
	}

	const logN = 10
	for _, name := range []string{"mergesort", "scan", "dcsum", "mixed"} {
		for _, sizes := range []string{"equal", "mixed"} {
			for _, k := range ks {
				specs := make([]fusedMemberSpec, k)
				for i := range specs {
					alg, n := name, logN
					if name == "mixed" {
						alg = []string{"mergesort", "scan", "dcsum"}[i%3]
					}
					if sizes == "mixed" {
						n = logN - 2*(i%4) // 2^10, 2^8, 2^6, 2^4
					}
					specs[i] = algMember(alg, n, i)
				}
				for _, p := range hpu.Platforms() {
					for _, co := range onOff {
						key := fmt.Sprintf("fused %s 2^%d %s %s k=%d co=%d", name, logN, sizes, p.Name, k, b2i(co))
						rows = append(rows, fusedGoldenRow(t, key, p, specs, co, true))
					}
				}
			}
		}
	}
	for _, r := range rows {
		if strings.Contains(r.row, "| error:") {
			t.Errorf("fused golden run failed: %s", r.row)
		}
	}
	return rows
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
