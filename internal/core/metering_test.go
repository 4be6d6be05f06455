package core

import (
	"context"
	"testing"

	"repro/internal/metrics"
)

// fakeBackend is a synchronous in-package backend: every Submit runs the
// batch immediately and advances a fake clock, so metered durations are
// deterministic and nonzero.
type fakeBackend struct {
	now   float64
	reads int // Now calls
	cpu   *fakeExec
	gpu   *fakeExec
}

type fakeExec struct{ be *fakeBackend }

func (e *fakeExec) Parallelism() int { return 4 }
func (e *fakeExec) Submit(b Batch, done func()) {
	b.Each(0, b.Tasks)
	e.be.now += 0.001
	if done != nil {
		done()
	}
}

func newFakeBackend(withGPU bool) *fakeBackend {
	be := &fakeBackend{}
	be.cpu = &fakeExec{be: be}
	if withGPU {
		be.gpu = &fakeExec{be: be}
	}
	return be
}

func (f *fakeBackend) CPU() LevelExecutor { return f.cpu }
func (f *fakeBackend) GPU() LevelExecutor {
	if f.gpu == nil {
		return nil
	}
	return f.gpu
}
func (f *fakeBackend) GPUGamma() float64 { return 0.1 }
func (f *fakeBackend) TransferToGPU(n int64, done func()) {
	f.now += 0.0005
	done()
}
func (f *fakeBackend) TransferToCPU(n int64, done func()) {
	f.now += 0.0005
	done()
}
func (f *fakeBackend) Now() float64 { f.reads++; return f.now }
func (f *fakeBackend) Wait()        {}

// meterAlg is a minimal two-level GPUAlg for metering tests.
type meterAlg struct{}

func (meterAlg) Name() string { return "meter-alg" }
func (meterAlg) Arity() int   { return 2 }
func (meterAlg) Shrink() int  { return 2 }
func (meterAlg) N() int       { return 4 }
func (meterAlg) Levels() int  { return 2 }
func (meterAlg) DivideBatch(level, lo, hi int) Batch {
	return Batch{Tasks: hi - lo, Cost: Cost{Ops: 10}}
}
func (meterAlg) BaseBatch(lo, hi int) Batch {
	return Batch{Tasks: hi - lo, Cost: Cost{Ops: 5}}
}
func (meterAlg) CombineBatch(level, lo, hi int) Batch {
	return Batch{Tasks: hi - lo, Cost: Cost{Ops: 10}}
}
func (a meterAlg) GPUDivideBatch(level, lo, hi int) Batch  { return a.DivideBatch(level, lo, hi) }
func (a meterAlg) GPUBaseBatch(lo, hi int) Batch           { return a.BaseBatch(lo, hi) }
func (a meterAlg) GPUCombineBatch(level, lo, hi int) Batch { return a.CombineBatch(level, lo, hi) }
func (meterAlg) GPUBytes(level, lo, hi int) int64          { return int64(hi-lo) * 128 }

func TestMeteredSequentialRun(t *testing.T) {
	reg := metrics.NewRegistry()
	be := newFakeBackend(true)
	if _, err := RunSequentialCtx(context.Background(), be, meterAlg{}, WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricRuns]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricRuns, got)
	}
	// Sequential: 2 divide levels + base + 2 combine levels = 5 CPU batches.
	if got := s.Histograms[MetricCPUBatchSeconds].Count; got != 5 {
		t.Errorf("%s count = %d, want 5", MetricCPUBatchSeconds, got)
	}
	if got := s.Histograms[MetricRunSeconds].Count; got != 1 {
		t.Errorf("%s count = %d, want 1", MetricRunSeconds, got)
	}
	if got := s.Counters[MetricToGPUBytes]; got != 0 {
		t.Errorf("sequential run moved %d bytes to GPU", got)
	}
}

func TestMeteredHybridTransfers(t *testing.T) {
	reg := metrics.NewRegistry()
	be := newFakeBackend(true)
	if _, err := RunBasicHybridCtx(context.Background(), be, meterAlg{}, 1, WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricToGPUTransfers]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricToGPUTransfers, got)
	}
	if got := s.Counters[MetricToCPUTransfers]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricToCPUTransfers, got)
	}
	// Crossover at level 1: 2 subproblems of 128 bytes each cross, each way.
	if got := s.Counters[MetricToGPUBytes]; got != 256 {
		t.Errorf("%s = %d, want 256", MetricToGPUBytes, got)
	}
	if got := s.Counters[MetricToCPUBytes]; got != 256 {
		t.Errorf("%s = %d, want 256", MetricToCPUBytes, got)
	}
	if got := s.Histograms[MetricGPUBatchSeconds].Count; got == 0 {
		t.Error("no GPU batches metered in a hybrid run")
	}
}

// TestNilMetricsUnchanged pins that a run without WithMetrics or
// WithIntervals has no tap, and that a tap reads the clock twice per
// interval it reports and nowhere else: the run without one reads it only
// for its own stamps.
func TestNilMetricsUnchanged(t *testing.T) {
	be := newFakeBackend(true)
	for _, opts := range [][]Option{nil, {WithMetrics(nil)}, {WithIntervals(nil)}} {
		cfg := NewRunConfig(opts...)
		if newTap(&cfg, be) != nil {
			t.Errorf("options %d long: a run with no listener has a tap", len(opts))
		}
	}
	reads := func(opts ...Option) int {
		be := newFakeBackend(true)
		if _, err := RunAdvancedHybridCtx(context.Background(), be, meterAlg{}, 0.5, 1, opts...); err != nil {
			t.Fatal(err)
		}
		return be.reads
	}
	intervals := 0
	bare, heard := reads(), reads(WithIntervals(func(Interval) { intervals++ }))
	if intervals == 0 || heard-bare != 2*intervals {
		t.Errorf("clock reads: %d without a listener, %d with one hearing %d intervals; want a difference of 2 per interval",
			bare, heard, intervals)
	}
}
