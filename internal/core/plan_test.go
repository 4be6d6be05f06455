package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dcerr"
	"repro/internal/metrics"
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

// tickBackend is an inlineBackend that counts the platform calls an executor
// makes — every Submit, transfer and clock reading — calling fire inside
// call number at (never, for at < 0). Every op of a chain but a fork makes
// one such call, and so does a chain's end, so cancelling in each call of a
// run in turn stops it at every boundary of every chain.
type tickBackend struct {
	inlineBackend
	calls int
	at    int
	fire  func()
}

type tickUnit struct{ be *tickBackend }

func (be *tickBackend) tick() {
	if be.calls == be.at {
		be.fire()
	}
	be.calls++
}

func (u tickUnit) Parallelism() int { return 1 }
func (u tickUnit) Submit(b Batch, done func()) {
	u.be.tick()
	inlineUnit{}.Submit(b, done)
}

func (be *tickBackend) CPU() LevelExecutor                 { return tickUnit{be} }
func (be *tickBackend) GPU() LevelExecutor                 { return tickUnit{be} }
func (be *tickBackend) TransferToGPU(_ int64, done func()) { be.tick(); done() }
func (be *tickBackend) TransferToCPU(_ int64, done func()) { be.tick(); done() }
func (be *tickBackend) Now() float64                       { be.tick(); return be.inlineBackend.Now() }

// planStub is a binary tree of the given depth. Recording, it logs every
// batch constructor call ("new kind@level[lo,hi)") and every batch execution
// ("run ...") in one stream and calls hook from inside the batch, which is
// where a test cancels from. Not recording, its constructors hand out one
// prebuilt batch with a static body and allocate nothing.
type planStub struct {
	L        int
	record   bool
	hook     func(event string)
	log      []string
	finished int // Finish calls: a run that settled complete
}

func (s *planStub) Finish() { s.finished++ }

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

// walk runs ops, then the fork, as the top chain of an otherwise empty run —
// an empty CPU portion, whose join is an empty tail — and returns the run
// once it has ended.
func walk(ctx context.Context, alg *planStub, ops []op) *run {
	r := &run{be: &inlineBackend{}}
	r.init(ctx, alg, alg)
	r.chains = r.newChains(chDev)
	r.chains[chTop].ops = append(ops[:len(ops):len(ops)], op{kind: opFork, lo: chCPU, hi: chDev})
	r.chains[chTail].waits.Store(1)
	r.chains[chCPU].then = &r.chains[chTail]
	r.drive(&r.chains[chTop])
	return r
}

// forked reports whether the run got as far as its tail: the top chain
// forked the portions and they joined.
func forked(r *run) bool { return r.chains[chTail].run != nil }

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
	if !forked(r) {
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
		if !r.stopped.Load() || forked(r) {
			t.Errorf("cancel before op %d: stopped = %v, forked = %v; want a stopped, unforked run",
				k, r.stopped.Load(), forked(r))
		}
	}
}

// TestForkCancelEndsAtJoin cancels inside one portion of a forked run. The
// portion stops at its next boundary, the other one is not interrupted by
// the interpreter (it stops at its own next boundary), the run ends at the
// join — the tail above the split never starts — and the report is Partial
// under ErrCanceled. The fused rows cancel a three-member group of depths 4,
// 3 and 2 — two chunk chains, the combine chain that is their join and the
// three egress chains it forks, with the layout switch — in every platform
// call it makes, in turn: every report is Partial under one ErrCanceled and
// no member is finished, wherever the run stopped; a cancellation that comes
// after the run's last boundary finds a complete run instead.
func TestForkCancelEndsAtJoin(t *testing.T) {
	type forkCase struct {
		name      string
		depths    []int
		run       func(ctx context.Context, be Backend, algs []GPUAlg) ([]Report, error)
		at        string   // the batch that cancels, or ...
		call      int      // ... the platform call that does
		must, not []string // events that must and must not have run
	}
	// L = 4, split 1, α = 0.5, y = 2: the CPU portion is subproblem 0 of
	// level 1, the device stripe subproblem 1. The inline backend runs the
	// CPU portion to its end before the device chain starts.
	advanced := func(ctx context.Context, be Backend, algs []GPUAlg) ([]Report, error) {
		rep, err := RunAdvancedHybridCtx(ctx, be, algs[0], 0.5, 2, WithSplit(1))
		return []Report{rep}, err
	}
	fused := func(ctx context.Context, be Backend, algs []GPUAlg) ([]Report, error) {
		return RunFusedGPUCtx(ctx, be, algs, WithCoalesce())
	}
	cases := []forkCase{
		{name: "advanced", depths: []int{4}, run: advanced, at: "gpu-base@4[8,16)", call: -1,
			must: []string{"run divide@0[0,1)", "run combine@1[0,1)", "run gpu-base@4[8,16)"},
			not:  []string{"gpu-combine", "combine@1[1,2)", "combine@0"}},
		{name: "advanced", depths: []int{4}, run: advanced, at: "divide@1[0,1)", call: -1,
			must: []string{"run divide@0[0,1)", "run divide@1[0,1)"},
			not:  []string{"divide@2", "base", "gpu-", "combine"}},
	}
	// One fused row per platform call of the complete run.
	fusedDepths := []int{4, 3, 2}
	complete := &tickBackend{at: -1}
	if _, err := fused(context.Background(), complete, stubTrees(fusedDepths, nil)); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < complete.calls; call++ {
		cases = append(cases, forkCase{name: "fused", depths: fusedDepths, run: fused, call: call})
	}

	ranToEnd := 0
	for _, tc := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		be := &tickBackend{at: tc.call, fire: cancel}
		algs := stubTrees(tc.depths, func(ev string) {
			if ev == tc.at {
				cancel()
			}
		})
		reps, err := tc.run(ctx, be, algs)
		cancel()
		where := fmt.Sprintf("%s, cancel in %s (call %d)", tc.name, tc.at, tc.call)
		var log []string
		finished := 0
		for _, alg := range algs {
			log = append(log, alg.(permStub).log...)
			finished += alg.(permStub).finished
		}
		if err == nil && tc.name == "fused" {
			// Canceled after the last boundary: a complete run.
			ranToEnd++
			if finished != len(algs) {
				t.Errorf("%s: complete, but %d of %d members finished", where, finished, len(algs))
			}
		} else if !errors.Is(err, dcerr.ErrCanceled) || finished != 0 {
			t.Errorf("%s: err = %v, %d members finished; want ErrCanceled and none", where, err, finished)
		}
		for m, rep := range reps {
			if rep.Partial != (err != nil) {
				t.Errorf("%s: member %d Partial = %v beside err = %v", where, m, rep.Partial, err)
			}
		}
		joined := strings.Join(log, "\n")
		for _, ev := range tc.must {
			if !strings.Contains(joined, ev) {
				t.Errorf("%s: %q missing from\n%s", where, ev, joined)
			}
		}
		for _, ev := range tc.not {
			if strings.Contains(joined, ev) {
				t.Errorf("%s: %q ran past the boundary:\n%s", where, ev, joined)
			}
		}
	}
	// What follows the last boundary of the fused run: its last chain's end
	// and the settlement each read the clock once.
	if ranToEnd > 2 {
		t.Errorf("%d of %d cancellations let the fused run complete; only the last two calls come after its last boundary",
			ranToEnd, complete.calls)
	}
}

// permStub is a recording planStub with the §6.3 layout hooks.
type permStub struct{ *planStub }

func (s permStub) PermuteForGPU(l, lo, hi int) Batch { return s.batch("permute", l, lo, hi) }
func (s permStub) PermuteBack(l, lo, hi int) Batch   { return s.batch("permute-back", l, lo, hi) }

// stubTrees builds one recording permStub per depth, all sharing hook.
func stubTrees(depths []int, hook func(event string)) []GPUAlg {
	algs := make([]GPUAlg, len(depths))
	for i, L := range depths {
		algs[i] = permStub{&planStub{L: L, record: true, hook: hook}}
	}
	return algs
}

// TestRunSize pins the run inside the 768-byte size class. Above 512 bytes
// the allocator puts an 8-byte header before an object with pointers, so a
// run of more than 760 bytes moves to the 896-byte class: 128 bytes more on
// every executor call, which the served workloads' alloc_kb_per_job shows
// (RunConfig's flags sit side by side for this).
func TestRunSize(t *testing.T) {
	if n := unsafe.Sizeof(run{}); n > 760 {
		t.Errorf("run is %d bytes, want at most 760", n)
	}
}

// TestPlanAllocsIndependentOfDepth is the property that replaces the closure
// chain: a plan is one slice of ops and each chain one bound callback, so
// what a run allocates does not depend on how many levels it walks. (With a
// closure per step it was two allocations per level.) The sequential run
// folds every level into one task through a body bound once per run, not a
// closure per level. The counts are pinned too: the serving benchmark's
// allocs_per_job rows sit near 30 with a 2 % bound, so one more allocation
// per run is a regression there. A fused run of one member is a plan like
// the others. With more members a fused plan still grows per level: a launch
// that fuses several batches allocates (fuseBatches' offsets and two
// closures per launch), about 3 more per level for two members and 9 for
// four or eight, until fuseBatches stops allocating per level. Those rows are
// pinned per depth, at the counts measured with testing.AllocsPerRun on a
// 2-vCPU x86-64 host. A run with a listener — WithMetrics or an interval
// hook — adds its tap and the tap's table of open intervals, one slot per
// chain: two allocations whatever L is. (Three metering decorators allocated
// a closure per batch before the interpreter measured its own ops.)
func TestPlanAllocsIndependentOfDepth(t *testing.T) {
	ctx := context.Background()
	heard := 0
	withMetrics, withHook := WithMetrics(metrics.NewRegistry()), WithIntervals(func(Interval) { heard++ })
	fused := func(be Backend, algs []GPUAlg) error {
		_, err := RunFusedGPUCtx(ctx, be, algs)
		return err
	}
	single := func(run func(be Backend, alg GPUAlg) (Report, error)) func(Backend, []GPUAlg) error {
		return func(be Backend, algs []GPUAlg) error {
			_, err := run(be, algs[0])
			return err
		}
	}
	for _, tc := range []struct {
		name          string
		members       int
		run           func(be Backend, algs []GPUAlg) error
		shallow, deep float64 // most allocations per run at L = 4 and L = 16
	}{
		{"sequential", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunSequentialCtx(ctx, be, alg)
		}), 5, 5},
		{"bf-cpu", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunBreadthFirstCPUCtx(ctx, be, alg)
		}), 3, 3},
		{"gpu-only", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunGPUOnlyCtx(ctx, be, alg)
		}), 4, 4},
		{"basic-hybrid", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunBasicHybridCtx(ctx, be, alg, 2)
		}), 6, 6},
		{"advanced-hybrid", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunAdvancedHybridCtx(ctx, be, alg, 0.5, 3, WithSplit(2))
		}), 7, 7},
		{"advanced-hybrid with WithMetrics", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunAdvancedHybridCtx(ctx, be, alg, 0.5, 3, WithSplit(2), withMetrics)
		}), 9, 9},
		{"advanced-hybrid with a hook", 1, single(func(be Backend, alg GPUAlg) (Report, error) {
			return RunAdvancedHybridCtx(ctx, be, alg, 0.5, 3, WithSplit(2), withHook)
		}), 9, 9},
		{"fused x1", 1, fused, 12, 12},
		{"fused x2", 2, fused, 26, 62},
		{"fused x4", 4, fused, 56, 164},
		{"fused x8", 8, fused, 56, 164},
	} {
		allocs := func(L int) float64 {
			be, algs := &inlineBackend{}, make([]GPUAlg, tc.members)
			for i := range algs {
				algs[i] = &planStub{L: L}
			}
			return testing.AllocsPerRun(20, func() {
				if err := tc.run(be, algs); err != nil {
					t.Fatal(err)
				}
			})
		}
		shallow, deep := allocs(4), allocs(16)
		if shallow > tc.shallow || deep > tc.deep {
			t.Errorf("%s: %g allocations per run at L = 4, %g at L = 16; want at most %g and %g",
				tc.name, shallow, deep, tc.shallow, tc.deep)
		}
		if tc.shallow == tc.deep && shallow != deep {
			t.Errorf("%s: %g allocations per run at L = 4, %g at L = 16", tc.name, shallow, deep)
		}
	}
}
