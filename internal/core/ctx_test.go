package core_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/algos/mergesort"
	. "repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/hpu"
	"repro/internal/native"
)

// cancelAlg is an instrumented GPUAlg whose hook fires from inside a chosen
// batch's first task, letting tests cancel a run from a precisely known
// point of the execution plan. Because the executors check their context
// before each step (a level boundary), everything scheduled after the
// hooked batch's level is guaranteed not to run. With a workingSet every
// batch declares it and every task is recorded, as the one-task range
// [lo+i, lo+i+1): a coarse walk then runs in blocks, and each block's tasks
// show.
type cancelAlg struct {
	levels     int
	workingSet int64
	hook       func(phase string, level int)

	mu     sync.Mutex
	events []probeEvent
}

func newCancelAlg(levels int) *cancelAlg { return &cancelAlg{levels: levels} }

func (c *cancelAlg) record(phase string, level, lo, hi int) Batch {
	if hi <= lo {
		return Batch{}
	}
	return Batch{
		Tasks: hi - lo,
		Cost:  Cost{Ops: 100, WorkingSet: c.workingSet},
		Run: func(i int) {
			e := probeEvent{phase, level, lo, hi}
			if c.workingSet > 0 {
				e.lo, e.hi = lo+i, lo+i+1
			}
			if i == 0 || c.workingSet > 0 {
				c.mu.Lock()
				c.events = append(c.events, e)
				c.mu.Unlock()
			}
			if i != 0 {
				return
			}
			if c.hook != nil {
				c.hook(phase, level)
			}
		},
	}
}

// solveProbe is a mergesort whose Solve records itself in probe and fires
// probe's hook from another goroutine as it starts, so that a cancellation
// the hook makes lands while the Solve runs its passes. Once the Solve has
// returned, it records "solved" if the subtree came out sorted: a Solve that
// ignored stop.
type solveProbe struct {
	*mergesort.Sorter
	probe *cancelAlg
}

func (p solveProbe) Solve(level, idx int, stop <-chan struct{}) {
	p.probe.note(probeEvent{"solve", level, idx, idx + 1})
	if p.probe.hook != nil {
		go p.probe.hook("solve", level)
	}
	p.Sorter.Solve(level, idx, stop)
	p.Sorter.Finish() // an even depth: the last pass wrote buf[0], and Finish moves nothing
	if slices.IsSorted(p.Sorter.Result()) {
		p.probe.note(probeEvent{"solved", level, idx, idx + 1})
	}
}

// note records an event that is not a batch's.
func (c *cancelAlg) note(e probeEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *cancelAlg) snapshot() []probeEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]probeEvent(nil), c.events...)
}

func (c *cancelAlg) Name() string { return "cancel-probe" }
func (c *cancelAlg) Arity() int   { return 2 }
func (c *cancelAlg) Shrink() int  { return 2 }
func (c *cancelAlg) N() int       { return 1 << c.levels }
func (c *cancelAlg) Levels() int  { return c.levels }

func (c *cancelAlg) DivideBatch(level, lo, hi int) Batch {
	return c.record("divide", level, lo, hi)
}
func (c *cancelAlg) BaseBatch(lo, hi int) Batch { return c.record("base", -1, lo, hi) }
func (c *cancelAlg) CombineBatch(level, lo, hi int) Batch {
	return c.record("combine", level, lo, hi)
}
func (c *cancelAlg) GPUDivideBatch(level, lo, hi int) Batch {
	return c.record("gpu-divide", level, lo, hi)
}
func (c *cancelAlg) GPUBaseBatch(lo, hi int) Batch { return c.record("gpu-base", -1, lo, hi) }
func (c *cancelAlg) GPUCombineBatch(level, lo, hi int) Batch {
	return c.record("gpu-combine", level, lo, hi)
}
func (c *cancelAlg) GPUBytes(level, lo, hi int) int64 { return int64(hi-lo) * 64 }

// waitGoroutines polls until the goroutine count returns to the baseline
// (plus slack for runtime helpers), failing if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d at start, %d after close", base, n)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type ctxRunner func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error)

func basicRunner(crossover int) ctxRunner {
	return func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
		return RunBasicHybridCtx(ctx, be, alg, crossover)
	}
}

func advancedRunner(alpha float64, y, split int) ctxRunner {
	return func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
		return RunAdvancedHybridCtx(ctx, be, alg, alpha, y, WithSplit(split))
	}
}

// TestCancellationMatrix cancels executions from precisely known points —
// before the run starts, mid-level on the CPU phase, mid-level on the GPU
// phase, and after the transfer back — on both the simulated and the native
// backend, asserting the run stops within one level boundary, the Report is
// partial, and the error unwraps to dcerr.ErrCanceled.
func TestCancellationMatrix(t *testing.T) {
	const levels = 6
	cases := []struct {
		name string
		// phase/level select the batch whose first task cancels the context;
		// phase "" cancels before the run starts.
		phase string
		level int
		run   ctxRunner
		// forbidden reports events that must not appear once the context was
		// canceled at the trigger point.
		forbidden func(e probeEvent) bool
		// A native row runs on the native backend only; a working set is
		// cancelAlg's workingSet.
		native     bool
		workingSet int64
	}{
		{
			name: "before-start",
			run:  basicRunner(3),
			forbidden: func(e probeEvent) bool {
				return true // nothing at all may run
			},
		},
		{
			name: "mid-cpu-divide", phase: "divide", level: 1,
			run: basicRunner(3),
			forbidden: func(e probeEvent) bool {
				return e.phase != "divide" || e.level > 1
			},
		},
		{
			name: "mid-gpu-base", phase: "gpu-base", level: -1,
			run: basicRunner(2),
			forbidden: func(e probeEvent) bool {
				return e.phase == "gpu-combine" || e.phase == "combine"
			},
		},
		{
			name: "after-transfer", phase: "combine", level: 1,
			run: basicRunner(2),
			forbidden: func(e probeEvent) bool {
				return e.phase == "combine" && e.level == 0
			},
		},
		{
			name: "sequential-mid", phase: "divide", level: 2,
			run: func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
				return RunSequentialCtx(ctx, be, alg)
			},
			forbidden: func(e probeEvent) bool {
				return e.phase != "divide" || e.level > 2
			},
		},
		{
			// The native sequential run is one coarse walk, and 128 KiB of
			// working set makes it blocked: the divides of levels 0 and 1
			// over the whole tree, then four blocks of one level-2 subtree
			// each, from their divides to their combines, then the combines
			// of levels 1 and 0. Cancel in the first block's divide of level
			// 3: the phase in flight completes (level 3's tasks 0 and 1), and
			// no later phase of any block runs.
			name: "sequential-walk-mid-block", phase: "divide", level: 3,
			native: true, workingSet: 128 << 10,
			run: func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
				return RunSequentialCtx(ctx, be, alg)
			},
			forbidden: func(e probeEvent) bool {
				return e.phase != "divide" || e.level > 3 || e.level >= 2 && e.lo >= TasksAtLevel(2, e.level-2)
			},
		},
		{
			// The native sequential run of a mergesort is one Solve of the
			// whole tree, 2^20 elements in 20 passes. The cancellation
			// reaches it while it merges, it returns at its next pass
			// boundary, and the array stays unsorted.
			name: "sequential-solve-mid-pass", phase: "solve", level: 0,
			native: true,
			run: func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
				data := make([]int32, 1<<20)
				for i := range data {
					data[i] = int32(i * 7919 % 65521)
				}
				s, err := mergesort.New(data)
				if err != nil {
					return Report{}, err
				}
				defer s.Release()
				return RunSequentialCtx(ctx, be, solveProbe{s, alg})
			},
			forbidden: func(e probeEvent) bool {
				return e.phase == "solved"
			},
		},
		{
			name: "advanced-top-divide", phase: "divide", level: 0,
			run: advancedRunner(0.5, 3, 2),
			forbidden: func(e probeEvent) bool {
				return !(e.phase == "divide" && e.level == 0)
			},
		},
		{
			// Cancel inside the CPU chain after the fork: the tail combine
			// above the split must never run, whatever the GPU chain managed
			// to finish before its own next boundary check.
			name: "advanced-mid-chain", phase: "divide", level: 2,
			run: advancedRunner(0.5, 3, 2),
			forbidden: func(e probeEvent) bool {
				return e.phase == "base" || (e.phase == "combine" && e.level < 2)
			},
		},
		{
			// Cancel inside the device chain of the leaf level, which splits
			// on both backends: the join waits for the CPU share and stops
			// at its boundary, so no level above the leaves may start.
			name: "dynamic-mid-ladder", phase: "gpu-base", level: -1,
			run: func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
				return RunDynamicHybridCtx(ctx, be, alg)
			},
			forbidden: func(e probeEvent) bool {
				return e.phase == "combine" || e.phase == "gpu-combine"
			},
		},
	}

	backends := []struct {
		name string
		open func(t *testing.T) (Backend, func())
	}{
		{"sim", func(t *testing.T) (Backend, func()) {
			return hpu.MustSim(hpu.HPU1()), func() {}
		}},
		{"native", func(t *testing.T) (Backend, func()) {
			b, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
			if err != nil {
				t.Fatal(err)
			}
			return b, func() { b.Close() }
		}},
	}

	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for _, tc := range cases {
				if tc.native && bk.name != "native" {
					continue // the simulator folds the sequential baseline level by level
				}
				t.Run(tc.name, func(t *testing.T) {
					be, stop := bk.open(t)
					alg := newCancelAlg(levels)
					alg.workingSet = tc.workingSet
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if tc.phase == "" {
						cancel()
					} else {
						var once sync.Once
						alg.hook = func(phase string, level int) {
							if phase == tc.phase && level == tc.level {
								once.Do(cancel)
							}
						}
					}

					rep, err := tc.run(ctx, be, alg)
					stop()
					if err == nil {
						t.Fatal("canceled run returned nil error")
					}
					if !errors.Is(err, dcerr.ErrCanceled) {
						t.Fatalf("error %v does not unwrap to ErrCanceled", err)
					}
					if !rep.Partial {
						t.Error("canceled run's Report is not marked Partial")
					}
					if rep.Seconds < 0 {
						t.Errorf("partial Report has negative makespan %g", rep.Seconds)
					}
					events := alg.snapshot()
					if tc.phase != "" {
						found := false
						for _, e := range events {
							if e.phase == tc.phase && e.level == tc.level {
								found = true
							}
						}
						if !found {
							t.Fatalf("trigger batch %s@%d never ran (events %v)", tc.phase, tc.level, events)
						}
					}
					for _, e := range events {
						if tc.forbidden(e) {
							t.Errorf("batch ran past the cancellation boundary: %+v", e)
						}
					}
				})
			}
			waitGoroutines(t, base)
		})
	}
}

// TestCancellationControl runs the same strategies uncanceled, as the
// baseline for the matrix: complete runs, no Partial flag, no error.
func TestCancellationControl(t *testing.T) {
	runners := map[string]ctxRunner{
		"sequential": func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
			return RunSequentialCtx(ctx, be, alg)
		},
		"bf-cpu": func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
			return RunBreadthFirstCPUCtx(ctx, be, alg)
		},
		"basic":    basicRunner(2),
		"advanced": advancedRunner(0.5, 3, 2),
		"gpu-only": func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
			return RunGPUOnlyCtx(ctx, be, alg)
		},
		"dynamic": func(ctx context.Context, be Backend, alg *cancelAlg) (Report, error) {
			return RunDynamicHybridCtx(ctx, be, alg)
		},
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			be := hpu.MustSim(hpu.HPU1())
			rep, err := run(context.Background(), be, newCancelAlg(6))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Partial {
				t.Error("complete run marked Partial")
			}
			if rep.Seconds <= 0 {
				t.Errorf("complete run has makespan %g", rep.Seconds)
			}
		})
	}
}

// TestCancellationDeadlineCause asserts an expired deadline surfaces both the
// typed sentinel and the context cause.
func TestCancellationDeadlineCause(t *testing.T) {
	be := hpu.MustSim(hpu.HPU1())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err := RunSequentialCtx(ctx, be, newCancelAlg(4))
	if !errors.Is(err, dcerr.ErrCanceled) {
		t.Fatalf("error %v does not unwrap to ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
	if !rep.Partial {
		t.Error("deadline-expired run's Report is not marked Partial")
	}
}

// TestExecutorsRefuseClosedBackend asserts every executor guards with
// ErrBackendClosed instead of submitting to dead pools.
func TestExecutorsRefuseClosedBackend(t *testing.T) {
	b, err := native.New(native.Config{CPUWorkers: 1, DeviceLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	alg := newCancelAlg(4)
	ctx := context.Background()
	checks := map[string]error{}
	_, checks["sequential"] = RunSequentialCtx(ctx, b, alg)
	_, checks["bf-cpu"] = RunBreadthFirstCPUCtx(ctx, b, alg)
	_, checks["basic"] = RunBasicHybridCtx(ctx, b, alg, 2)
	_, checks["advanced"] = RunAdvancedHybridCtx(ctx, b, alg, 0.5, 2)
	_, checks["gpu-only"] = RunGPUOnlyCtx(ctx, b, alg)
	for name, err := range checks {
		if !errors.Is(err, dcerr.ErrBackendClosed) {
			t.Errorf("%s on closed backend: error %v does not unwrap to ErrBackendClosed", name, err)
		}
	}
	if len(alg.snapshot()) != 0 {
		t.Errorf("closed backend still ran batches: %v", alg.snapshot())
	}
}
