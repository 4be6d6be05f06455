package trace

import (
	"context"

	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/native"
	"repro/internal/workload"
)

func tracedRun(t *testing.T) *Recorder {
	t.Helper()
	rec := NewRecorder()
	be := hpu.MustSim(hpu.HPU1())
	in := workload.Uniform(1<<10, 1)
	s, err := mergesort.New(in)
	if err != nil {
		t.Fatal(err)
	}
	prm := advParams{Alpha: 0.25, Y: 5, Split: -1}
	if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithCoalesce(), core.WithSplit(prm.Split), Record(rec)); err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, v := range s.Result() {
		if v != want[i] {
			t.Fatal("traced run produced unsorted output")
		}
	}
	return rec
}

func TestRecorderCapturesAllUnits(t *testing.T) {
	rec := tracedRun(t)
	seen := map[Unit]bool{}
	for _, s := range rec.Spans() {
		seen[s.Unit] = true
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Label)
		}
	}
	for _, u := range []Unit{UnitCPU, UnitGPU, UnitLink} {
		if !seen[u] {
			t.Errorf("no spans recorded for unit %s", u)
		}
	}
	// The advanced division performs exactly two transfers.
	links := 0
	for _, s := range rec.Spans() {
		if s.Unit == UnitLink {
			links++
		}
	}
	if links != 2 {
		t.Errorf("link spans = %d, want 2 (the paper's single round trip)", links)
	}
}

func TestSpansSortedByStart(t *testing.T) {
	spans := tracedRun(t).Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("Spans() not sorted by start time")
		}
	}
}

func TestUtilization(t *testing.T) {
	util := tracedRun(t).Utilization()
	for u, f := range util {
		if f <= 0 || f > 1 {
			t.Errorf("utilization[%s] = %g outside (0,1]", u, f)
		}
	}
	if util[UnitCPU] == 0 {
		t.Error("CPU utilization missing")
	}
}

func TestUtilizationMergesOverlaps(t *testing.T) {
	rec := NewRecorder()
	rec.Add(Span{Unit: UnitCPU, Start: 0, End: 2})
	rec.Add(Span{Unit: UnitCPU, Start: 1, End: 3})
	rec.Add(Span{Unit: UnitGPU, Start: 0, End: 4})
	util := rec.Utilization()
	if got := util[UnitCPU]; got != 0.75 {
		t.Errorf("CPU utilization = %g, want 0.75 (merged 0..3 over 0..4)", got)
	}
	if got := util[UnitGPU]; got != 1.0 {
		t.Errorf("GPU utilization = %g, want 1", got)
	}
}

func TestGantt(t *testing.T) {
	out := tracedRun(t).Gantt(60)
	for _, want := range []string{"cpu", "gpu", "link", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt output missing %q:\n%s", want, out)
		}
	}
	if got := NewRecorder().Gantt(60); got != "(no spans)\n" {
		t.Errorf("empty Gantt = %q", got)
	}
}

func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := tracedRun(t).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
}

func TestRingBufferEvictsOldest(t *testing.T) {
	rec := NewRecorderLimit(3)
	for i := 0; i < 5; i++ {
		rec.Add(Span{Unit: UnitCPU, Start: float64(i), End: float64(i) + 0.5})
	}
	if got := rec.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := rec.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	// The two oldest spans (starts 0 and 1) were evicted.
	for _, s := range rec.Spans() {
		if s.Start < 2 {
			t.Errorf("span with start %g survived eviction", s.Start)
		}
	}
	// Unbounded recorders never drop.
	un := NewRecorder()
	for i := 0; i < 5; i++ {
		un.Add(Span{Unit: UnitCPU, Start: float64(i), End: float64(i) + 1})
	}
	if un.Dropped() != 0 || un.Len() != 5 {
		t.Errorf("unbounded recorder dropped %d of %d", un.Dropped(), 5-un.Len())
	}
}

func TestScopeStampsJob(t *testing.T) {
	rec := NewRecorder()
	rec.Scope(7).Add(Span{Unit: UnitCPU, Start: 0, End: 1})
	rec.Scope(9).Add(Span{Unit: UnitGPU, Start: 1, End: 2})
	rec.Add(Span{Unit: UnitLink, Start: 2, End: 3}) // direct, job 0
	jobs := map[Unit]uint64{}
	for _, s := range rec.Spans() {
		jobs[s.Unit] = s.Job
	}
	if jobs[UnitCPU] != 7 || jobs[UnitGPU] != 9 || jobs[UnitLink] != 0 {
		t.Errorf("job stamping wrong: %v", jobs)
	}
}

func TestUtilizationEdgeCases(t *testing.T) {
	// Empty recorder: nil.
	if got := NewRecorder().Utilization(); got != nil {
		t.Errorf("empty Utilization = %v, want nil", got)
	}
	// All spans zero-duration: makespan 0, nil rather than NaN.
	zero := NewRecorder()
	zero.Add(Span{Unit: UnitCPU, Start: 1, End: 1})
	zero.Add(Span{Unit: UnitGPU, Start: 1, End: 1})
	if got := zero.Utilization(); got != nil {
		t.Errorf("zero-makespan Utilization = %v, want nil", got)
	}
	// A single span: its unit is 100% busy.
	one := NewRecorder()
	one.Add(Span{Unit: UnitCPU, Start: 2, End: 5})
	util := one.Utilization()
	if got := util[UnitCPU]; got != 1 {
		t.Errorf("single-span utilization = %g, want 1", got)
	}
	// A zero-duration span alongside a real one contributes nothing.
	mixed := NewRecorder()
	mixed.Add(Span{Unit: UnitCPU, Start: 0, End: 4})
	mixed.Add(Span{Unit: UnitGPU, Start: 2, End: 2})
	util = mixed.Utilization()
	if got := util[UnitGPU]; got != 0 {
		t.Errorf("zero-duration span utilization = %g, want 0", got)
	}
}

// TestChromeTraceGolden pins the exact export format: pid grouping by job,
// tid lanes per unit, and the level prefix in names.
func TestChromeTraceGolden(t *testing.T) {
	rec := NewRecorder()
	rec.Add(Span{Unit: UnitCPU, Label: "4 tasks x 10 ops", Level: 2, Start: 0, End: 0.001})
	rec.Scope(3).Add(Span{Unit: UnitLink, Label: "to-gpu 64B", Start: 0.001, End: 0.002})
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"L2 4 tasks x 10 ops","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1},` +
		`{"name":"to-gpu 64B","ph":"X","ts":1000,"dur":1000,"pid":4,"tid":3}]` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("chrome trace mismatch:\ngot  %s\nwant %s", got, want)
	}
}

func TestConcurrentAdd(t *testing.T) {
	rec := NewRecorderLimit(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := rec.Scope(uint64(g))
			for i := 0; i < 100; i++ {
				sc.Add(Span{Unit: UnitCPU, Start: float64(i), End: float64(i) + 1})
			}
		}(g)
	}
	wg.Wait()
	if got := rec.Len(); got != 64 {
		t.Errorf("Len = %d, want 64", got)
	}
	if got := rec.Dropped(); got != 8*100-64 {
		t.Errorf("Dropped = %d, want %d", got, 8*100-64)
	}
}

// advParams groups advanced-division parameters for test tables. It
// replaces the deprecated core.AdvancedParams in test code.
type advParams struct {
	Alpha float64
	Y     int
	Split int
}

// TestRecordNative traces an advanced-hybrid sort on the native backend,
// whose two chains complete their batches on worker goroutines and record
// into one recorder concurrently.
func TestRecordNative(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	in := workload.Uniform(1<<12, 3)
	s, err := mergesort.New(in)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, 0.5, 6, Record(rec)); err != nil {
		t.Fatal(err)
	}
	units := map[Unit]int{}
	for _, sp := range rec.Spans() {
		units[sp.Unit]++
		if sp.End < sp.Start {
			t.Errorf("span %q ends before it starts", sp.Label)
		}
	}
	if units[UnitCPU] == 0 || units[UnitGPU] == 0 || units[UnitLink] != 2 {
		t.Errorf("spans per unit = %v, want CPU and GPU batches and the two transfers", units)
	}
	if !workload.IsSorted(s.Result()) {
		t.Error("traced native run produced unsorted output")
	}
}
