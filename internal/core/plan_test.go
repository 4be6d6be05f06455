package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dcerr"
)

// inlineBackend runs every batch and transfer on the submitting goroutine
// and completes it before Submit returns, so a whole run is one call stack
// and its order is the order of the calls. Now is a counter: every reading
// is later than the one before.
type inlineBackend struct {
	cpu, gpu inlineUnit
	clock    float64
}

type inlineUnit struct{}

func (inlineUnit) Parallelism() int { return 1 }
func (inlineUnit) Submit(b Batch, done func()) {
	b.Each(0, b.Tasks)
	done()
}

func (be *inlineBackend) CPU() LevelExecutor                 { return &be.cpu }
func (be *inlineBackend) GPU() LevelExecutor                 { return &be.gpu }
func (be *inlineBackend) GPUGamma() float64                  { return 0.5 }
func (be *inlineBackend) TransferToGPU(_ int64, done func()) { done() }
func (be *inlineBackend) TransferToCPU(_ int64, done func()) { done() }
func (be *inlineBackend) Now() float64                       { be.clock++; return be.clock }
func (be *inlineBackend) Wait()                              {}

// planStub is a binary tree of the given depth. Recording, it logs every
// batch constructor call ("new kind@level[lo,hi)") and every batch execution
// ("run ...") in one stream and calls hook from inside the batch, which is
// where a test cancels from. Not recording, its constructors hand out one
// prebuilt batch with a static body and allocate nothing.
type planStub struct {
	L      int
	record bool
	hook   func(event string)
	log    []string
}

func (s *planStub) batch(kind string, level, lo, hi int) Batch {
	if !s.record {
		return Batch{Tasks: hi - lo, Run: stubTask}
	}
	ev := fmt.Sprintf("%s@%d[%d,%d)", kind, level, lo, hi)
	s.log = append(s.log, "new "+ev)
	return Batch{Tasks: hi - lo, Run: func(i int) {
		if i != 0 {
			return
		}
		s.log = append(s.log, "run "+ev)
		if s.hook != nil {
			s.hook(ev)
		}
	}}
}

func stubTask(int) {}

func (s *planStub) Name() string { return "stub" }
func (s *planStub) Arity() int   { return 2 }
func (s *planStub) Shrink() int  { return 2 }
func (s *planStub) N() int       { return 1 << s.L }
func (s *planStub) Levels() int  { return s.L }

func (s *planStub) DivideBatch(l, lo, hi int) Batch     { return s.batch("divide", l, lo, hi) }
func (s *planStub) BaseBatch(lo, hi int) Batch          { return s.batch("base", s.L, lo, hi) }
func (s *planStub) CombineBatch(l, lo, hi int) Batch    { return s.batch("combine", l, lo, hi) }
func (s *planStub) GPUDivideBatch(l, lo, hi int) Batch  { return s.batch("gpu-divide", l, lo, hi) }
func (s *planStub) GPUBaseBatch(lo, hi int) Batch       { return s.batch("gpu-base", s.L, lo, hi) }
func (s *planStub) GPUCombineBatch(l, lo, hi int) Batch { return s.batch("gpu-combine", l, lo, hi) }
func (s *planStub) GPUBytes(_, lo, hi int) int64        { return int64(hi - lo) }

// walk runs ops as the top chain of an otherwise empty run and returns the
// run once it has ended.
func walk(ctx context.Context, alg *planStub, ops []op) *run {
	be := &inlineBackend{}
	r := &run{
		ctx: ctx, cancelable: ctx.Done() != nil,
		be: be, alg: alg, galg: alg, a: 2, L: alg.L,
		done: make(chan struct{}),
	}
	r.top.ops = ops
	r.top.start(r)
	awaitChain(be, r.done)
	return r
}

// stubOps is a five-op chain over a depth-2 tree, and the event each op
// produces.
var (
	stubOps = []op{
		{opDivide, 0, 0, 1}, {opDivide, 1, 0, 2}, {opBase, 2, 0, 4}, {opCombine, 1, 0, 2}, {opCombine, 0, 0, 1},
	}
	stubEvents = []string{"divide@0[0,1)", "divide@1[0,2)", "base@2[0,4)", "combine@1[0,2)", "combine@0[0,1)"}
)

// ranThrough is the log of a chain that constructed and ran the first k
// stubOps, each batch constructed only after the one before it had run.
func ranThrough(k int) []string {
	var log []string
	for _, ev := range stubEvents[:k] {
		log = append(log, "new "+ev, "run "+ev)
	}
	return log
}

func TestChainRunsOpsInOrder(t *testing.T) {
	alg := &planStub{L: 2, record: true}
	r := walk(context.Background(), alg, stubOps)
	if want := ranThrough(len(stubOps)); !reflect.DeepEqual(alg.log, want) {
		t.Errorf("log = %v\nwant  %v", alg.log, want)
	}
	if r.stopped.Load() {
		t.Error("complete run reports a stopped chain")
	}
	if r.forkAt == 0 {
		t.Error("the top chain ended without forking the portions")
	}
}

// TestEmptyChainsComplete: a run none of whose chains has an op still walks
// top → fork → join → tail and ends.
func TestEmptyChainsComplete(t *testing.T) {
	alg := &planStub{L: 2, record: true}
	r := walk(context.Background(), alg, nil)
	if len(alg.log) != 0 || r.stopped.Load() {
		t.Errorf("empty run: log %v, stopped %v", alg.log, r.stopped.Load())
	}
}

// TestChainCancelAtBoundary cancels from inside op k−1 (before the run for
// k = 0): that op completes, op k is not even constructed, and a top chain
// that stopped early ends the run without forking.
func TestChainCancelAtBoundary(t *testing.T) {
	for k := 0; k <= len(stubOps); k++ {
		ctx, cancel := context.WithCancel(context.Background())
		alg := &planStub{L: 2, record: true}
		if k == 0 {
			cancel()
		} else {
			alg.hook = func(ev string) {
				if ev == stubEvents[k-1] {
					cancel()
				}
			}
		}
		r := walk(ctx, alg, stubOps)
		cancel()
		if want := ranThrough(k); !reflect.DeepEqual(alg.log, want) {
			t.Errorf("cancel before op %d: log = %v\nwant  %v", k, alg.log, want)
		}
		// Canceled inside the last op, the chain stops at the boundary after
		// it — the fork — like at any other.
		if !r.stopped.Load() || r.forkAt != 0 {
			t.Errorf("cancel before op %d: stopped = %v, forkAt = %g; want a stopped, unforked run",
				k, r.stopped.Load(), r.forkAt)
		}
	}
}

// TestForkCancelEndsAtJoin cancels inside one portion of a forked run. The
// portion stops at its next boundary, the other one is not interrupted by
// the interpreter (it stops at its own next boundary), the run ends at the
// join — the tail above the split never starts — and the report is Partial
// under ErrCanceled.
func TestForkCancelEndsAtJoin(t *testing.T) {
	// L = 4, split 1, α = 0.5, y = 2: the CPU portion is subproblem 0 of
	// level 1, the device stripe subproblem 1. The inline backend runs the
	// CPU portion to its end before the device chain starts.
	for _, tc := range []struct {
		at        string   // the batch that cancels
		must, not []string // events that must and must not have run
	}{
		{at: "gpu-base@4[8,16)",
			must: []string{"run divide@0[0,1)", "run combine@1[0,1)", "run gpu-base@4[8,16)"},
			not:  []string{"gpu-combine", "combine@1[1,2)", "combine@0"}},
		{at: "divide@1[0,1)",
			must: []string{"run divide@0[0,1)", "run divide@1[0,1)"},
			not:  []string{"divide@2", "base", "gpu-", "combine"}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		alg := &planStub{L: 4, record: true}
		alg.hook = func(ev string) {
			if ev == tc.at {
				cancel()
			}
		}
		rep, err := RunAdvancedHybridCtx(ctx, &inlineBackend{}, alg, 0.5, 2, WithSplit(1))
		cancel()
		if !errors.Is(err, dcerr.ErrCanceled) || !rep.Partial {
			t.Errorf("cancel in %s: Partial = %v, err = %v; want a partial report under ErrCanceled", tc.at, rep.Partial, err)
		}
		log := strings.Join(alg.log, "\n")
		for _, ev := range tc.must {
			if !strings.Contains(log, ev) {
				t.Errorf("cancel in %s: %q missing from\n%s", tc.at, ev, log)
			}
		}
		for _, ev := range tc.not {
			if strings.Contains(log, ev) {
				t.Errorf("cancel in %s: %q ran past the boundary:\n%s", tc.at, ev, log)
			}
		}
	}
}

// TestPlanAllocsIndependentOfDepth is the property that replaces the closure
// chain: a plan is one slice of ops and each chain one bound callback, so
// what a run allocates does not depend on how many levels it walks. (With a
// closure per step it was two allocations per level.) The sequential run
// folds every level into one task through a body bound once per run, not a
// closure per level.
func TestPlanAllocsIndependentOfDepth(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(be Backend, alg GPUAlg) (Report, error)
	}{
		{"sequential", func(be Backend, alg GPUAlg) (Report, error) {
			return RunSequentialCtx(ctx, be, alg)
		}},
		{"bf-cpu", func(be Backend, alg GPUAlg) (Report, error) {
			return RunBreadthFirstCPUCtx(ctx, be, alg)
		}},
		{"advanced-hybrid", func(be Backend, alg GPUAlg) (Report, error) {
			return RunAdvancedHybridCtx(ctx, be, alg, 0.5, 3, WithSplit(2))
		}},
	} {
		allocs := func(L int) float64 {
			be, alg := &inlineBackend{}, &planStub{L: L}
			return testing.AllocsPerRun(20, func() {
				if _, err := tc.run(be, alg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if shallow, deep := allocs(4), allocs(16); shallow != deep {
			t.Errorf("%s: %g allocations per run at L = 4, %g at L = 16", tc.name, shallow, deep)
		}
	}
}
