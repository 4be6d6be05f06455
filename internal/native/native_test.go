package native

import (
	"context"

	"runtime"
	"sort"
	"testing"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/workload"
)

func newBackend(t *testing.T, cfg Config) *Backend {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func sortedCopy(in []int32) []int32 {
	out := append([]int32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{DeviceLanes: -1}); err == nil {
		t.Error("New accepted negative DeviceLanes")
	}
	if _, err := New(Config{Gamma: 1.5}); err == nil {
		t.Error("New accepted Gamma > 1")
	}
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.CPU().Parallelism() != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS", b.CPU().Parallelism())
	}
	if b.GPU() != nil {
		t.Error("CPU-only config should have nil GPU")
	}
	if b.GPUGamma() != 0 {
		t.Errorf("CPU-only GPUGamma = %g, want 0", b.GPUGamma())
	}
}

// TestSubmitRunsAllTasks: every index of a batch runs exactly once, whichever
// form its body has — a range body sees the engine's spans, splits and
// quanta as disjoint ranges that tile [0, Tasks).
func TestSubmitRunsAllTasks(t *testing.T) {
	const n = 100_000
	for _, body := range []string{"Run", "RunRange"} {
		t.Run(body, func(t *testing.T) {
			b := newBackend(t, Config{CPUWorkers: 4})
			hits := make([]int32, n)
			batch := core.Batch{Tasks: n, Run: func(i int) { hits[i]++ }}
			if body == "RunRange" {
				batch = core.Batch{Tasks: n, RunRange: func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("RunRange(%d, %d) outside [0, %d) or empty", lo, hi, n)
						return
					}
					for i := lo; i < hi; i++ {
						hits[i]++
					}
				}}
			}
			done := false
			b.CPU().Submit(batch, func() { done = true })
			b.Wait()
			if !done {
				t.Fatal("done callback not invoked")
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("task %d ran %d times", i, h)
				}
			}
		})
	}
}

func TestEmptyBatchCompletesImmediately(t *testing.T) {
	b := newBackend(t, Config{CPUWorkers: 2})
	called := false
	b.CPU().Submit(core.Batch{}, func() { called = true })
	if !called {
		t.Error("empty batch done not called synchronously")
	}
}

func TestChainedSubmissions(t *testing.T) {
	// A long chain of dependent batches must not deadlock the pool.
	b := newBackend(t, Config{CPUWorkers: 2})
	count := 0
	var step func()
	step = func() {
		if count == 500 {
			return
		}
		count++
		b.CPU().Submit(core.Batch{Tasks: 3, Run: func(int) {}}, step)
	}
	step()
	b.Wait()
	if count != 500 {
		t.Fatalf("chain stopped at %d", count)
	}
}

func TestSequentialMergesortNative(t *testing.T) {
	in := workload.Uniform(1<<12, 3)
	b := newBackend(t, Config{CPUWorkers: 4})
	s, err := mergesort.New(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunSequentialCtx(context.Background(), b, s); err != nil {
		t.Fatal(err)
	}
	if !equal(s.Result(), sortedCopy(in)) {
		t.Error("native sequential run unsorted")
	}
}

func TestBreadthFirstMergesortNative(t *testing.T) {
	in := workload.Uniform(1<<14, 4)
	b := newBackend(t, Config{CPUWorkers: 4})
	s, err := mergesort.New(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunBreadthFirstCPUCtx(context.Background(), b, s)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(s.Result(), sortedCopy(in)) {
		t.Error("native breadth-first run unsorted")
	}
	if rep.Seconds <= 0 {
		t.Errorf("nonpositive duration %g", rep.Seconds)
	}
}

func TestAdvancedHybridNative(t *testing.T) {
	// Exercise the full hybrid plan — fork, device pool, transfers, join —
	// on real goroutines with the device pool standing in for the GPU.
	for _, coalesce := range []bool{false, true} {
		in := workload.Uniform(1<<13, 5)
		b := newBackend(t, Config{CPUWorkers: 4, DeviceLanes: 32})
		s, err := mergesort.New(in)
		if err != nil {
			t.Fatal(err)
		}
		prm := advParams{Alpha: 0.25, Y: 6, Split: -1}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), b, s, prm.Alpha, prm.Y,
			append(coalesceOpts(coalesce), core.WithSplit(prm.Split))...); err != nil {
			t.Fatal(err)
		}
		if !equal(s.Result(), sortedCopy(in)) {
			t.Errorf("native advanced hybrid unsorted (coalesce=%v)", coalesce)
		}
	}
}

func TestBasicHybridNative(t *testing.T) {
	in := workload.Uniform(1<<13, 6)
	b := newBackend(t, Config{CPUWorkers: 4, DeviceLanes: 16})
	s, err := mergesort.New(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunBasicHybridCtx(context.Background(), b, s, 6, core.WithCoalesce()); err != nil {
		t.Fatal(err)
	}
	if !equal(s.Result(), sortedCopy(in)) {
		t.Error("native basic hybrid unsorted")
	}
}

func TestGPUOnlyNative(t *testing.T) {
	in := workload.Uniform(1<<12, 7)
	b := newBackend(t, Config{CPUWorkers: 2, DeviceLanes: 64})
	s, err := mergesort.NewParallel(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunGPUOnlyCtx(context.Background(), b, s); err != nil {
		t.Fatal(err)
	}
	if !equal(s.Result(), sortedCopy(in)) {
		t.Error("native gpu-only unsorted")
	}
}

func TestTransferDelay(t *testing.T) {
	b := newBackend(t, Config{CPUWorkers: 1, DeviceLanes: 1, TransferDelay: 1e6}) // 1ms
	start := b.Now()
	done := false
	b.TransferToGPU(1024, func() { done = true })
	b.Wait()
	if !done {
		t.Fatal("transfer done not called")
	}
	if b.Now()-start < 0.0009 {
		t.Errorf("transfer completed too fast: %gs", b.Now()-start)
	}
}

// advParams groups advanced-division parameters for test tables. It
// replaces the deprecated core.AdvancedParams in test code.
type advParams struct {
	Alpha float64
	Y     int
	Split int
}

// coalesceOpts returns the coalescing option when on, for table-driven
// tests that toggle it.
func coalesceOpts(on bool) []core.Option {
	if on {
		return []core.Option{core.WithCoalesce()}
	}
	return nil
}
