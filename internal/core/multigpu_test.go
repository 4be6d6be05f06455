package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/algos/mergesort"
	. "repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// coalesceOpts returns the coalescing option when on, for table-driven
// tests that toggle it.
func coalesceOpts(on bool) []Option {
	if on {
		return []Option{WithCoalesce()}
	}
	return nil
}

func sortedRef(in []int32) []int32 {
	out := append([]int32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMultiGPUSortsCorrectly(t *testing.T) {
	for _, devices := range []int{1, 2, 3, 4} {
		for _, coalesce := range []bool{false, true} {
			in := workload.Uniform(1<<12, int64(devices))
			be, err := hpu.NewMultiSim(hpu.HPU1(), devices)
			if err != nil {
				t.Fatal(err)
			}
			s, err := mergesort.New(in)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunMultiGPUCtx(context.Background(), be, s, 0.2, 7, coalesceOpts(coalesce)...)
			if err != nil {
				t.Fatalf("devices=%d coalesce=%v: %v", devices, coalesce, err)
			}
			want := sortedRef(in)
			got := s.Result()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("devices=%d coalesce=%v: unsorted at %d", devices, coalesce, i)
				}
			}
			if rep.Seconds <= 0 {
				t.Errorf("devices=%d: nonpositive duration", devices)
			}
		}
	}
}

func TestMultiGPUStructure(t *testing.T) {
	// Each device's combine ranges must be disjoint and cover exactly the
	// GPU portion.
	p := newProbe(2, 8)
	be, err := hpu.NewMultiSim(hpu.HPU1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMultiGPUCtx(context.Background(), be, p, 0.25, 5, WithSplit(2)); err != nil {
		t.Fatal(err)
	}
	for level, ranges := range p.combinedRanges() {
		total := 0
		for _, r := range ranges {
			total += r[1] - r[0]
		}
		if want := TasksAtLevel(2, level); total != want {
			t.Errorf("level %d: combined tasks = %d, want %d (%v)", level, total, want, ranges)
		}
	}
}

func TestMultiGPUAlphaOne(t *testing.T) {
	// α=1 leaves every device idle; the run degenerates to CPU-only.
	in := workload.Uniform(1<<10, 1)
	be, err := hpu.NewMultiSim(hpu.HPU2(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mergesort.New(in)
	rep, err := RunMultiGPUCtx(context.Background(), be, s, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUPortionSeconds != 0 {
		t.Errorf("α=1 multi-GPU run reported device time %g", rep.GPUPortionSeconds)
	}
	got := s.Result()
	want := sortedRef(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("unsorted")
		}
	}
}

func TestMultiGPUMoreDevicesThanWork(t *testing.T) {
	// Split level 1 on a=2 gives at most 2 GPU stripes; 4 devices must not
	// break striping.
	in := workload.Uniform(1<<10, 2)
	be, err := hpu.NewMultiSim(hpu.HPU1(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mergesort.New(in)
	if _, err := RunMultiGPUCtx(context.Background(), be, s, 0.4, 4, WithSplit(1), WithCoalesce()); err != nil {
		t.Fatal(err)
	}
	got := s.Result()
	want := sortedRef(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("unsorted")
		}
	}
}

func TestMultiGPUValidation(t *testing.T) {
	if _, err := hpu.NewMultiSim(hpu.HPU1(), 0); err == nil {
		t.Error("NewMultiSim accepted 0 devices")
	}
	be, _ := hpu.NewMultiSim(hpu.HPU1(), 1)
	s, _ := mergesort.New(workload.Uniform(1<<8, 1))
	if _, err := RunMultiGPUCtx(context.Background(), be, s, -1, 3, WithSplit(0)); err == nil {
		t.Error("accepted alpha < 0")
	}
	if _, err := RunMultiGPUCtx(context.Background(), be, s, 0.5, 99, WithSplit(0)); err == nil {
		t.Error("accepted y > L")
	}
}

// TestDualDieFootnote reproduces the decision behind the paper's footnote 5:
// on HPU1's dual-GPU card, the second die's extra transfers are not
// worthwhile for the hybrid mergesort at the paper's sizes.
func TestDualDieFootnote(t *testing.T) {
	in := workload.Uniform(1<<16, 3)
	run := func(devices int) float64 {
		be, err := hpu.NewMultiSim(hpu.HPU1(), devices)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := mergesort.New(in)
		rep, err := RunMultiGPUCtx(context.Background(), be, s, 0.17, 8, WithCoalesce())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	single, dual := run(1), run(2)
	// The dual-die run must not be dramatically better — the available
	// parallelism cannot saturate both dies above the transfer level
	// (footnote 5); allow it to be mildly better or worse.
	if dual < 0.75*single {
		t.Errorf("dual-die run %gs much faster than single %gs; footnote 5 trade-off not reproduced",
			dual, single)
	}
}

// TestMultiGPUDeviceBatchesMeasured: every device batch of a multi-device
// run is measured like any other. The interpreter times the ops it submits
// to each device's executor, so the core_gpu_batch_seconds histogram and the
// trace's "gpu" spans count exactly the plan's non-empty device batches, on
// both devices. (Backend decorators could not see them: the devices were
// reached through the backend's GPUs, not through the wrapper.)
func TestMultiGPUDeviceBatchesMeasured(t *testing.T) {
	mg, err := hpu.NewMultiSim(hpu.HPU1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	be := newPlanRecorder(mg)
	reg, rec := metrics.NewRegistry(), trace.NewRecorder()
	if _, err := RunMultiGPUCtx(context.Background(), be, newProbe(2, 6), 0.25, 3,
		WithMetrics(reg), trace.Record(rec)); err != nil {
		t.Fatal(err)
	}
	perDevice := map[string]int{}
	for _, line := range be.lines {
		var unit string
		var level, tasks int
		if _, err := fmt.Sscanf(line, "%s l=%d n=%d", &unit, &level, &tasks); err == nil && strings.HasPrefix(unit, "gpu") && tasks > 0 {
			perDevice[unit]++
		}
	}
	if perDevice["gpu0"] == 0 || perDevice["gpu1"] == 0 {
		t.Fatalf("device batches per device = %v, want both devices used", perDevice)
	}
	want := perDevice["gpu0"] + perDevice["gpu1"]
	if got := reg.Snapshot().Histograms[MetricGPUBatchSeconds].Count; got != uint64(want) {
		t.Errorf("%s count = %d, want the plan's %d device batches", MetricGPUBatchSeconds, got, want)
	}
	spans := 0
	for _, s := range rec.Spans() {
		if s.Unit == trace.UnitGPU {
			spans++
		}
	}
	if spans != want {
		t.Errorf("gpu spans = %d, want the plan's %d device batches", spans, want)
	}
}

// TestMeteredNativeIntervals runs a two-device division on the native
// backend, where the CPU portion and both device chains complete their ops
// on worker goroutines, with metrics and a hook both listening: under -race
// it checks the tap's writes, and the metrics count exactly what the hook
// heard.
func TestMeteredNativeIntervals(t *testing.T) {
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	heard := map[Unit]int{}
	toGPU := 0
	hook := WithIntervals(func(iv Interval) {
		mu.Lock()
		defer mu.Unlock()
		heard[iv.Unit]++
		if iv.ToGPU {
			toGPU++
		}
	})
	for round := 0; round < 4; round++ {
		if _, err := RunMultiGPUCtx(context.Background(), newMultiNative(t, 2), newProbe(2, 8), 0.3, 4,
			WithMetrics(reg), hook); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if got := s.Histograms[MetricCPUBatchSeconds].Count; got != uint64(heard[UnitCPU]) || got == 0 {
		t.Errorf("%s count = %d, hook heard %d CPU batches", MetricCPUBatchSeconds, got, heard[UnitCPU])
	}
	if got := s.Histograms[MetricGPUBatchSeconds].Count; got != uint64(heard[UnitGPU]) || got == 0 {
		t.Errorf("%s count = %d, hook heard %d device batches", MetricGPUBatchSeconds, got, heard[UnitGPU])
	}
	if up, down := s.Counters[MetricToGPUTransfers], s.Counters[MetricToCPUTransfers]; up != 4*2 || down != 4*2 ||
		int(up+down) != heard[UnitLink] || int(up) != toGPU {
		t.Errorf("transfers up %d down %d, hook heard %d (%d up); want two each way per device per run",
			up, down, heard[UnitLink], toGPU)
	}
	if got := s.Counters[MetricRuns]; got != 4 {
		t.Errorf("%s = %d, want 4", MetricRuns, got)
	}
}
