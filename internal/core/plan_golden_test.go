package core_test

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	. "repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/workload"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/{plans,fused,dynamic}.golden from this commit's executors")

// planRecorder is a backend decorator that writes down, in call order and
// with the virtual time of the call, everything an executor asks of the
// platform: every CPU and device Submit (unit, level, tasks, per-task ops),
// and every transfer (direction, bytes). On the
// single-goroutine simulator that stream is the run's whole schedule, so two
// executors that produce the same stream are the same plan.
type planRecorder struct {
	inner Backend
	cpu   recUnit
	gpus  []LevelExecutor
	lines []string
}

type recUnit struct {
	rec   *planRecorder
	name  string
	inner LevelExecutor
}

func (u *recUnit) Parallelism() int { return u.inner.Parallelism() }
func (u *recUnit) Submit(b Batch, done func()) {
	u.rec.logf("%s l=%d n=%d ops=%g", u.name, b.Level, b.Tasks, b.Cost.Ops)
	u.inner.Submit(b, done)
}

func newPlanRecorder(inner Backend) *planRecorder {
	r := &planRecorder{inner: inner}
	r.cpu = recUnit{r, "cpu", inner.CPU()}
	devices := []LevelExecutor{inner.GPU()}
	if mg, ok := inner.(MultiGPUBackend); ok {
		devices = mg.GPUs()
	}
	for d, dev := range devices {
		r.gpus = append(r.gpus, &recUnit{r, fmt.Sprintf("gpu%d", d), dev})
	}
	return r
}

func (r *planRecorder) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...)+fmt.Sprintf(" t=%.17g", r.inner.Now()))
}

func (r *planRecorder) CPU() LevelExecutor    { return &r.cpu }
func (r *planRecorder) GPU() LevelExecutor    { return r.gpus[0] }
func (r *planRecorder) GPUs() []LevelExecutor { return r.gpus }
func (r *planRecorder) GPUGamma() float64     { return r.inner.GPUGamma() }
func (r *planRecorder) Now() float64          { return r.inner.Now() }
func (r *planRecorder) Wait()                 { r.inner.Wait() }
func (r *planRecorder) TransferToGPU(n int64, done func()) {
	r.logf("up %d", n)
	r.inner.TransferToGPU(n, done)
}
func (r *planRecorder) TransferToCPU(n int64, done func()) {
	r.logf("down %d", n)
	r.inner.TransferToCPU(n, done)
}

// permProbe is probeAlg with the §6.3 layout hooks, so WithCoalesce rows
// exercise the permute ops; their op counts differ from the probe's 100 so
// the two launches are recognisable in the recorded stream.
type permProbe struct{ *probeAlg }

func (p permProbe) PermuteForGPU(level, lo, hi int) Batch {
	b := p.record("permute", level, lo, hi)
	b.Cost.Ops = 7
	return b
}

func (p permProbe) PermuteBack(level, lo, hi int) Batch {
	b := p.record("permute-back", level, lo, hi)
	b.Cost.Ops = 9
	return b
}

// planVariant is one parameterisation of one entry point.
type planVariant struct {
	entry    string  // seq, bf, basic, gpu, adv, multi
	x        int     // basic: crossover
	alpha    float64 // adv, multi
	y        int     // adv, multi
	split    int     // adv, multi: explicit split, -1 for DefaultSplit
	devices  int     // multi
	coalesce bool
	grain    int
}

func (v planVariant) String() string {
	var sb strings.Builder
	sb.WriteString(v.entry)
	switch v.entry {
	case "basic":
		fmt.Fprintf(&sb, " x=%d", v.x)
	case "adv", "multi":
		fmt.Fprintf(&sb, " alpha=%g y=%d", v.alpha, v.y)
		if v.split >= 0 {
			fmt.Fprintf(&sb, " s=%d", v.split)
		} else {
			sb.WriteString(" s=def")
		}
		if v.entry == "multi" {
			fmt.Fprintf(&sb, " d=%d", v.devices)
		}
	}
	co := 0
	if v.coalesce {
		co = 1
	}
	g := fmt.Sprint(v.grain)
	if v.grain == GrainAuto {
		g = "auto"
	}
	fmt.Fprintf(&sb, " co=%d g=%s", co, g)
	return sb.String()
}

// backend builds the simulated platform the variant runs on: the multi-GPU
// entry point gets a MultiSim, everything else the single-device Sim.
func (v planVariant) backend(p hpu.Platform) Backend {
	if v.entry == "multi" {
		be, err := hpu.NewMultiSim(p, v.devices)
		if err != nil {
			panic(err)
		}
		return be
	}
	return hpu.MustSim(p)
}

func (v planVariant) run(be *planRecorder, alg GPUAlg) (Report, error) {
	opts := []Option{WithGrain(v.grain), WithSplit(v.split)}
	if v.coalesce {
		opts = append(opts, WithCoalesce())
	}
	ctx := context.Background()
	switch v.entry {
	case "seq":
		return RunSequentialCtx(ctx, be, alg, opts...)
	case "bf":
		return RunBreadthFirstCPUCtx(ctx, be, alg, opts...)
	case "basic":
		return RunBasicHybridCtx(ctx, be, alg, v.x, opts...)
	case "gpu":
		return RunGPUOnlyCtx(ctx, be, alg, opts...)
	case "adv":
		return RunAdvancedHybridCtx(ctx, be, alg, v.alpha, v.y, opts...)
	case "multi":
		return RunMultiGPUCtx(ctx, be, alg, v.alpha, v.y, opts...)
	}
	panic("unknown entry " + v.entry)
}

// planMatrix lists the values each dimension of the golden matrix takes.
type planMatrix struct {
	alphas        []float64
	levels        []int // crossover x and transfer level y
	explicitSplit bool  // also run every adv/multi variant with WithSplit(min(y, 2))
	grains        []int
	maxDev        int
}

// variants enumerates the matrix over all six entry points, each dimension
// only where the entry point reads it.
func (m planMatrix) variants() []planVariant {
	var out []planVariant
	for _, g := range m.grains {
		out = append(out, planVariant{entry: "seq", split: -1, grain: g}, planVariant{entry: "bf", split: -1, grain: g})
		for _, co := range []bool{false, true} {
			out = append(out, planVariant{entry: "gpu", split: -1, coalesce: co, grain: g})
			for _, x := range m.levels {
				out = append(out, planVariant{entry: "basic", x: x, split: -1, coalesce: co, grain: g})
			}
			for _, alpha := range m.alphas {
				for _, y := range m.levels {
					splits := []int{-1}
					if m.explicitSplit {
						splits = append(splits, min(y, 2))
					}
					for _, s := range splits {
						out = append(out, planVariant{entry: "adv", alpha: alpha, y: y, split: s, coalesce: co, grain: g})
						for d := 1; d <= m.maxDev; d++ {
							out = append(out, planVariant{entry: "multi", alpha: alpha, y: y, split: s, devices: d, coalesce: co, grain: g})
						}
					}
				}
			}
		}
	}
	return out
}

func hashLines(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// goldenRow runs one variant and renders its golden line plus, for a failing
// comparison, the full recorded stream. Probe rows (out == nil) fold the
// report's three times into the plan hash; algorithm rows print them to 17
// digits beside a hash of the output.
func goldenRow(key string, v planVariant, p hpu.Platform, alg GPUAlg, out func() uint64) (row string, detail []string) {
	rec := newPlanRecorder(v.backend(p))
	rep, err := v.run(rec, alg)
	if err != nil {
		return fmt.Sprintf("%s | error: %v", key, err), rec.lines
	}
	lines := rec.lines
	times := fmt.Sprintf("sec=%.17g cpu=%.17g gpu=%.17g", rep.Seconds, rep.CPUPortionSeconds, rep.GPUPortionSeconds)
	if out == nil {
		for _, e := range alg.(permProbe).events {
			lines = append(lines, fmt.Sprintf("%s@%d[%d,%d)", e.phase, e.level, e.lo, e.hi))
		}
		lines = append(lines, times)
		return fmt.Sprintf("%s | %s %d %016x", key, rep.Strategy, len(lines), hashLines(lines)), lines
	}
	return fmt.Sprintf("%s | %s %d %016x %s out=%016x", key, rep.Strategy, len(lines), hashLines(lines), times, out()), lines
}

// TestGoldenPlans pins the schedule of every entry point. The golden file
// was generated with -update on the commit before the executors became one
// interpreter (PR 20); any later diff is a behaviour change and has to be
// declared, not regenerated away. One declared change is in it: the 728
// multi rows with a grain and a CPU portion (g=64 or g=auto, alpha > 0) were
// regenerated by PR 20 itself, whose shared cpuPhase made RunMultiGPUCtx
// honour WithGrain; their output hashes did not move. One row per variant: the report's
// strategy, the number of recorded lines and a hash over them — the platform
// calls with their virtual times and, for the probe, the phases it saw. A
// mismatch logs the change side's full stream. The fused executor's rows
// (fused_golden_test.go) live beside them in testdata/fused.golden, generated
// on the commit before the fused run became a plan (PR 24).
//
// Both files were regenerated once more when the executors stopped leasing
// device staging segments: the recorder had written a "lease" line per
// lease, at the virtual time of the lease, which never moved the clock.
// Regenerated on the commit before with that line not written, plans.golden
// is the same file byte for byte, and fused.golden the same rows once its
// probe rows' "seg=" key (with and without a segment allocator) is dropped:
// the two halves were equal.
func TestGoldenPlans(t *testing.T) {
	var rows []goldenResult
	add := func(row string, detail []string) { rows = append(rows, goldenResult{row, detail}) }

	// Structure: the probe over three arities, the full matrix.
	for _, tree := range []struct{ a, L int }{{2, 6}, {3, 4}, {8, 3}} {
		m := planMatrix{
			alphas: []float64{0, 0.16, 0.5, 1}, levels: []int{0, tree.L / 2, tree.L},
			explicitSplit: true, grains: []int{0, 64, GrainAuto}, maxDev: 4,
		}
		for _, v := range m.variants() {
			key := fmt.Sprintf("probe a=%d L=%d %s", tree.a, tree.L, v)
			add(goldenRow(key, v, hpu.HPU1(), permProbe{newProbe(tree.a, tree.L)}, nil))
		}
	}

	// Numbers: the three served algorithms on both platforms, a thinner
	// matrix, times printed and outputs hashed.
	const logN = 12
	in := workload.Uniform(1<<logN, 20)
	algs := []struct {
		name  string
		build func() (GPUAlg, func() uint64)
	}{
		{"mergesort", func() (GPUAlg, func() uint64) {
			s, err := mergesort.New(append([]int32(nil), in...))
			if err != nil {
				t.Fatal(err)
			}
			return s, func() uint64 { return hashValues(s.Result()) }
		}},
		{"scan", func() (GPUAlg, func() uint64) {
			s, err := scan.New(in)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() uint64 { return hashValues(s.Result()) }
		}},
		{"dcsum", func() (GPUAlg, func() uint64) {
			s, err := dcsum.New(in)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() uint64 { return hashValues([]int64{s.Result()}) }
		}},
	}
	m := planMatrix{
		alphas: []float64{0.16, 0.5}, levels: []int{logN / 2, logN - 2},
		grains: []int{0, GrainAuto}, maxDev: 2,
	}
	for _, a := range algs {
		for _, p := range hpu.Platforms() {
			for _, v := range m.variants() {
				// dcsum keeps a single compact region, so its layout
				// switch cannot be striped over several devices.
				if a.name == "dcsum" && v.entry == "multi" && v.coalesce && v.devices > 1 {
					continue
				}
				alg, out := a.build()
				key := fmt.Sprintf("%s 2^%d %s %s", a.name, logN, p.Name, v)
				add(goldenRow(key, v, p, alg, out))
				ReleaseAlg(alg)
			}
		}
	}

	compareGolden(t, "plans.golden", rows)
	compareGolden(t, "fused.golden", fusedGoldenRows(t))
	compareGolden(t, "dynamic.golden", dynamicGoldenRows(t))
}

// dynamicGoldenRows runs RunDynamicHybridCtx under the plan recorder over
// mergesort, scan and dcsum at 2^8..2^16 (mergesort up to 2^20) on both
// platforms: one row each of the strategy, the number of recorded lines and
// their hash, Seconds to 17 digits and the output hash, which must also be
// the hash of the plain-Go result. testdata/dynamic.golden was generated,
// on the commit before this division replaced it, from the same rows of
// internal/sched's RunDynamicHybrid, a closure scheduler. The batches' "l="
// labels are stripped from the stream before hashing, because that
// scheduler left Batch.Level at 0 (no platform reads it).
func dynamicGoldenRows(t *testing.T) []goldenResult {
	var rows []goldenResult
	for _, name := range []string{"mergesort", "scan", "dcsum"} {
		top := 16
		if name == "mergesort" {
			top = 20
		}
		for logN := 8; logN <= top; logN++ {
			in := workload.Uniform(1<<logN, 20) // algMember's input
			want := hashValues([]int64{dcsum.Sum(in)})
			switch name {
			case "mergesort":
				want = hashValues(sortedRef(in))
			case "scan":
				want = hashValues(scan.Prefix(in))
			}
			for _, p := range hpu.Platforms() {
				alg, out := algMember(name, logN, 0)(t)
				rec := newPlanRecorder(hpu.MustSim(p))
				rep, err := RunDynamicHybridCtx(context.Background(), rec, alg)
				if err != nil {
					t.Fatal(err)
				}
				lines := make([]string, len(rec.lines))
				for i, l := range rec.lines {
					lines[i] = levelLabel.ReplaceAllString(l, "")
				}
				if out() != want {
					t.Errorf("%s 2^%d %s: dynamic result differs from plain Go", name, logN, p.Name)
				}
				rows = append(rows, goldenResult{fmt.Sprintf("%s 2^%d %s | %s %d %016x sec=%.17g out=%016x",
					name, logN, p.Name, rep.Strategy, len(lines), hashLines(lines), rep.Seconds, out()), lines})
				ReleaseAlg(alg)
			}
		}
	}
	return rows
}

var levelLabel = regexp.MustCompile(` l=-?\d+`)

// goldenResult is one golden row and, for a failing comparison, the full
// recorded stream behind it.
type goldenResult struct {
	row    string
	detail []string
}

// compareGolden compares rows with testdata/<name> line by line, or rewrites
// the file under -update. A mismatch logs the change side's full stream.
func compareGolden(t *testing.T, name string, rows []goldenResult) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updatePlans {
		var sb strings.Builder
		for _, r := range rows {
			sb.WriteString(r.row)
			sb.WriteByte('\n')
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(rows) {
		t.Fatalf("%s has %d rows, this commit produces %d", path, len(want), len(rows))
	}
	const show = 3
	bad := 0
	for i, r := range rows {
		if r.row == want[i] {
			continue
		}
		if bad++; bad <= show {
			t.Errorf("%s row %d differs\n want %s\n  got %s\n%s", name, i+1, want[i], r.row, strings.Join(r.detail, "\n"))
		}
	}
	if bad > show {
		t.Errorf("%s: %d rows differ in all (first %d shown)", name, bad, show)
	}
}

func hashValues[T int32 | int64](v []T) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}
