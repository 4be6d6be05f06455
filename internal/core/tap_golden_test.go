package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	. "repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// tapEntry is one run of TestGoldenTap: an entry point with its parameters.
type tapEntry struct {
	name string
	run  func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error
}

// tapEntries are the seven entry points and a fused group of three, on 2^8
// inputs (the fused group's third member is 2^6, so it has two depths).
var tapEntries = []tapEntry{
	{"seq", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunSequentialCtx(ctx, be, algs[0], opts...)
		return err
	}},
	{"bf", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunBreadthFirstCPUCtx(ctx, be, algs[0], opts...)
		return err
	}},
	{"bf g=auto", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunBreadthFirstCPUCtx(ctx, be, algs[0], append(opts, WithGrain(GrainAuto))...)
		return err
	}},
	{"basic x=4", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunBasicHybridCtx(ctx, be, algs[0], 4, opts...)
		return err
	}},
	{"gpu", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunGPUOnlyCtx(ctx, be, algs[0], opts...)
		return err
	}},
	{"adv alpha=0.3 y=5", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunAdvancedHybridCtx(ctx, be, algs[0], 0.3, 5, opts...)
		return err
	}},
	{"multi d=2 alpha=0.3 y=5", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunMultiGPUCtx(ctx, be.(MultiGPUBackend), algs[0], 0.3, 5, opts...)
		return err
	}},
	{"fused x3", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunFusedGPUCtx(ctx, be, algs, opts...)
		return err
	}},
	{"dynamic", func(ctx context.Context, be Backend, algs []GPUAlg, opts []Option) error {
		_, err := RunDynamicHybridCtx(ctx, be, algs[0], opts...)
		return err
	}},
}

// TestGoldenTap pins what a run reports to its listeners: the spans
// trace.Record turns the interpreter's intervals into, and the core_*
// metrics of WithMetrics, for every entry point over mergesort, scan and
// dcsum on both simulated platforms, with and without coalescing. Both
// golden files were generated on the commit before the interpreter became
// the one measuring tap, when three backend decorators timed the same
// callbacks. One difference is declared and filtered here, not
// regenerated away: those decorators never saw RunMultiGPUCtx's device
// batches, so a multi-device row compares without its "gpu" spans and its
// core_gpu_* metrics (TestMultiGPUDeviceBatchesMeasured counts them). The
// "dynamic" rows were added when the dynamic baseline became a division of
// the interpreter: the closure scheduler before it had no tap.
func TestGoldenTap(t *testing.T) {
	var spanRows, metricRows []goldenResult
	ctx := context.Background()
	for _, name := range []string{"mergesort", "scan", "dcsum"} {
		for _, p := range hpu.Platforms() {
			for _, co := range []bool{false, true} {
				for _, e := range tapEntries {
					multi := strings.HasPrefix(e.name, "multi")
					if multi && co && name == "dcsum" {
						continue // dcsum's layout switch cannot be striped over devices
					}
					specs := []fusedMemberSpec{algMember(name, 8, 0), algMember(name, 8, 1), algMember(name, 6, 2)}
					algs := make([]GPUAlg, len(specs))
					for i, spec := range specs {
						algs[i], _ = spec(t)
					}
					var be Backend = hpu.MustSim(p)
					if multi {
						mg, err := hpu.NewMultiSim(p, 2)
						if err != nil {
							t.Fatal(err)
						}
						be = mg
					}
					rec, reg := trace.NewRecorder(), metrics.NewRegistry()
					opts := []Option{trace.Record(rec), WithMetrics(reg)}
					if co {
						opts = append(opts, WithCoalesce())
					}
					if err := e.run(ctx, be, algs, opts); err != nil {
						t.Fatal(err)
					}
					for _, alg := range algs {
						ReleaseAlg(alg)
					}
					key := fmt.Sprintf("%s %s co=%t %s", name, p.Name, co, e.name)
					spanRows = append(spanRows, spanRowsOf(key, rec.Spans(), multi)...)
					metricRows = append(metricRows, goldenResult{row: metricRowOf(key, reg.Snapshot(), multi)})
				}
			}
		}
	}
	compareGolden(t, "spans.golden", spanRows)
	compareGolden(t, "metrics.golden", metricRows)
}

// spanRowsOf renders a run's spans, one row each, sorted by (start, unit,
// label, end); a multi-device run's "gpu" spans are left out.
func spanRowsOf(key string, spans []trace.Span, multi bool) []goldenResult {
	kept := spans[:0]
	for _, s := range spans {
		if !(multi && s.Unit == trace.UnitGPU) {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.End < b.End
	})
	rows := make([]goldenResult, len(kept))
	for i, s := range kept {
		rows[i].row = fmt.Sprintf("%s | %s %q L%d %.17g %.17g", key, s.Unit, s.Label, s.Level, s.Start, s.End)
	}
	return rows
}

// metricRowOf renders a run's core_* counters, floats and histogram counts
// and sums on one row, by name; a multi-device run's core_gpu_* metrics are
// left out.
func metricRowOf(key string, snap metrics.Snapshot, multi bool) string {
	var parts []string
	keep := func(name string) bool {
		return strings.HasPrefix(name, "core_") && !(multi && strings.HasPrefix(name, "core_gpu_"))
	}
	for name, v := range snap.Counters {
		if keep(name) {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	for name, v := range snap.Floats {
		if keep(name) {
			parts = append(parts, fmt.Sprintf("%s=%.17g", name, v))
		}
	}
	for name, h := range snap.Histograms {
		if keep(name) {
			parts = append(parts, fmt.Sprintf("%s=%d/%.17g", name, h.Count, h.Sum))
		}
	}
	sort.Strings(parts)
	return key + " | " + strings.Join(parts, " ")
}
