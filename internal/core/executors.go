package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dcerr"
)

// The Report.Strategy names of the single-device executors, which are also
// the serving layer's strategy names on the wire and in metrics.
// RunMultiGPUCtx reports "advanced-<k>gpu", RunFusedGPUCtx FusedStrategy.
const (
	SequentialStrategy      = "seq-1cpu"
	BreadthFirstCPUStrategy = "bf-cpu"
	BasicHybridStrategy     = "basic-hybrid"
	AdvancedHybridStrategy  = "advanced-hybrid"
	GPUOnlyStrategy         = "gpu-only"
)

// Report summarizes one execution.
type Report struct {
	Algorithm string
	Strategy  string
	// AutoStrategy is the strategy the serving layer's auto-tuner chose for
	// the job ("" unless the job was submitted with Strategy Auto). It can
	// differ from Strategy when a reliability policy substituted the
	// execution path (a CPU fallback or a hedge win runs bf-cpu whatever
	// was chosen).
	AutoStrategy string
	// Seconds is the total makespan. For a canceled (Partial) run it is the
	// time from start to the level boundary where execution stopped.
	Seconds float64
	// CPUPortionSeconds is, for the advanced strategy, the time at which
	// the CPU finished its α-portion (measured from the fork); for other
	// strategies it is the time spent in CPU phases.
	CPUPortionSeconds float64
	// GPUPortionSeconds is the time at which the GPU chain (including the
	// transfer back) finished, measured from the fork; for GPU-only runs
	// it is the device-resident time excluding transfers.
	GPUPortionSeconds float64
	// Partial reports that the run was canceled at a level boundary before
	// completing; the instance's result data is not valid.
	Partial bool
}

// DefaultSplit returns the natural split level for the advanced strategy:
// the level (from the top) at which the CPU's α-portion first contains at
// least p subproblems, ⌈log_a(p/α)⌉, clamped to [0, y]. Below this level the
// CPU side can keep all p cores busy, matching the §5.2 analysis.
func DefaultSplit(alg Alg, p int, alpha float64, y int) int {
	if alpha <= 0 {
		return 0
	}
	a := alg.Arity()
	s := 0
	for TasksAtLevel(a, s) > 0 && alpha*float64(TasksAtLevel(a, s)) < float64(p) && s < y {
		s++
	}
	if s > y {
		s = y
	}
	return s
}

// Autonomous marks backends whose submitted work progresses on its own
// goroutines, so an executor can block on its chain's completion signal
// without driving Wait. Event-loop backends (the simulator) lack this
// method — or return false — and are driven via Wait instead.
type Autonomous interface {
	Autonomous() bool
}

// Closer is implemented by backends with an explicit shutdown; executors
// refuse to start on a closed backend.
type Closer interface {
	Closed() bool
}

// Faulter is implemented by backend layers that can report a device fault
// observed while a run was in flight — the fault-injection wrapper of
// internal/faults, or a real device adapter surfacing asynchronous launch
// errors. Executors consult it when the run's chain completes: a non-nil
// fault marks the Report partial and classifies the run's error under
// dcerr.ErrDeviceFault, so the serving layer's retry and fallback policies
// can re-divide the work instead of returning corrupt results.
type Faulter interface {
	// Fault returns the first device fault observed during the run, or nil.
	Fault() error
}

// DeviceProber is implemented by backends that can cheaply verify their
// device path is alive without submitting work. The serving layer's circuit
// breaker consults it before admitting a half-open trial job.
type DeviceProber interface {
	// ProbeDevice returns nil when the device path can accept work.
	ProbeDevice() error
}

// deviceFault returns the backend chain's recorded fault, if any.
func deviceFault(be Backend) error {
	if f, ok := be.(Faulter); ok {
		return f.Fault()
	}
	return nil
}

func autonomous(be Backend) bool {
	a, ok := be.(Autonomous)
	return ok && a.Autonomous()
}

// checkOpen returns ErrBackendClosed if the backend reports itself closed.
func checkOpen(be Backend) error {
	if c, ok := be.(Closer); ok && c.Closed() {
		return fmt.Errorf("core: %w", dcerr.ErrBackendClosed)
	}
	return nil
}

// canceledErr wraps the cancellation cause under the typed sentinel.
func canceledErr(ctx context.Context, alg Alg, strategy string) error {
	if cause := context.Cause(ctx); cause != nil && cause != context.Canceled {
		return fmt.Errorf("core: %s %s: %w: %w", alg.Name(), strategy, dcerr.ErrCanceled, cause)
	}
	return fmt.Errorf("core: %s %s: %w", alg.Name(), strategy, dcerr.ErrCanceled)
}

// finish invokes the algorithm's Finish hook, if any.
func finish(alg Alg) {
	if f, ok := alg.(Finisher); ok {
		f.Finish()
	}
}

// open is every executor's prologue: a new run with its options resolved in
// place (a RunConfig that Options write to escapes anyway), on an open backend.
func open(be Backend, opts []Option) (*run, error) {
	r := &run{be: be}
	r.cfg.Resolve(opts)
	return r, checkOpen(be)
}

// RunSequentialCtx executes the algorithm on a single CPU core (the paper's
// recursive baseline). On an autonomous backend the run is one coarse task
// rooted at level 0 (CoarseBatch): the whole tree walked depth-first in
// cache blocks, or one Solve for a Solver. ctx is checked at every phase
// boundary of the walk, and by a Solve of several passes between them. On
// an event-loop backend every level is folded into one task, priced by the
// simulated core, and ctx is checked at every level boundary. On
// cancellation it returns a partial Report and an error wrapping
// dcerr.ErrCanceled. WithGrain is accepted but has no effect — the run is
// already one core's walk.
func RunSequentialCtx(ctx context.Context, be Backend, alg Alg, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	d := division{cpu: 1, fold: true}
	if autonomous(be) {
		d = division{cpu: 1, grain: math.MaxInt} // collapses every level
	}
	return r.execute(ctx, alg, nil, SequentialStrategy, d).report()
}

// RunBreadthFirstCPUCtx executes the algorithm breadth-first on the CPU
// only, using all p cores per level (the multi-core baseline), checking ctx
// at every level boundary. The bottom levels collapse into depth-first
// coarse chunks (grain.go, WithGrain); the result is bit-identical.
func RunBreadthFirstCPUCtx(ctx context.Context, be Backend, alg Alg, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	return r.execute(ctx, alg, nil, BreadthFirstCPUStrategy, division{cpu: 1, grain: r.cfg.Grain}).report()
}

// RunBasicHybridCtx executes the §5.1 basic work division: levels above the
// crossover run on the CPU (full width), levels at and below it — including
// the leaves — run on the GPU, with a single round trip across the link.
// crossover is the level index i at which execution moves to the GPU; use
// the model package's BasicCrossover to compute the paper's log_a(p/γ).
// ctx is checked at every level boundary; on cancellation the partial
// Report's error wraps dcerr.ErrCanceled. WithGrain is accepted but has no
// effect: the CPU portion holds only the levels above the crossover, never
// a leaf-adjacent phase that coarsening could collapse.
func RunBasicHybridCtx(ctx context.Context, be Backend, alg GPUAlg, crossover int, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	if L := alg.Levels(); crossover < 0 || crossover > L {
		return Report{}, fmt.Errorf("core: crossover level %d out of range [0,%d]: %w", crossover, L, dcerr.ErrBadLevel)
	}
	if be.GPU() == nil {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	r.execute(ctx, alg, alg, BasicHybridStrategy,
		division{s: crossover, y: crossover, devs: []LevelExecutor{be.GPU()}})
	r.rep[0].GPUPortionSeconds = since(r.devs()[0].stamps[stampHome], r.start)
	return r.report()
}

// RunGPUOnlyCtx executes the whole algorithm breadth-first on the device
// (the Fig 9 baseline), checking ctx at every level boundary. The report's
// GPUPortionSeconds excludes the two host↔device transfers ("sort only" in
// the paper); Seconds includes them.
func RunGPUOnlyCtx(ctx context.Context, be Backend, alg GPUAlg, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	if be.GPU() == nil {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	r.execute(ctx, alg, alg, GPUOnlyStrategy, division{devs: []LevelExecutor{be.GPU()}})
	r.rep[0].GPUPortionSeconds = since(r.devs()[0].stamps[stampRoot], r.devs()[0].stamps[stampResident])
	return r.report()
}

// RunDynamicHybridCtx executes the ablation's dynamic per-level baseline, a
// StarPU-flavoured greedy scheme: divide levels run on the CPU, and every
// base and combine level is split afresh between the units in proportion to
// their aggregate rates, p cores against γ·min(k, g) device lanes, the
// device's share shipped over the link and back around its launch. It is the
// transfer-naive division the paper's static ones (§2, §5) are argued
// against: one round trip per level that splits, where the advanced division
// pays one in all. Its Report's Strategy is "dynamic-hybrid". ctx is checked
// at every level boundary of every chain; on cancellation the partial
// Report's error wraps dcerr.ErrCanceled. WithCoalesce and WithGrain are
// accepted but have no effect: no share stays on the device for more than
// one level, and no CPU share spans the leaf-adjacent levels coarsening
// collapses.
func RunDynamicHybridCtx(ctx context.Context, be Backend, alg GPUAlg, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	if be.GPU() == nil {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	return r.ladder(ctx, alg).report()
}

// checkAlphaY validates the advanced division's CPU share and transfer
// level.
func checkAlphaY(alg Alg, alpha float64, y int) error {
	if alpha < 0 || alpha > 1 {
		return fmt.Errorf("core: alpha %g: %w", alpha, dcerr.ErrBadAlpha)
	}
	if L := alg.Levels(); y < 0 || y > L {
		return fmt.Errorf("core: transfer level %d out of range [0,%d]: %w", y, L, dcerr.ErrBadLevel)
	}
	return nil
}

// splitDivision resolves the advanced division's split level (DefaultSplit
// unless WithSplit pinned one), the CPU's share α of that level's
// subproblems, rounded to the nearest whole one, and how many of the devices
// the rest keeps busy: with fewer subproblems than devices the others idle.
func splitDivision(be Backend, cfg *RunConfig, alg Alg, alpha float64, y int, devices []LevelExecutor) (division, error) {
	s := DefaultSplit(alg, be.CPU().Parallelism(), alpha, y)
	if cfg.SplitSet {
		s = cfg.Split
	}
	if s > y {
		return division{}, fmt.Errorf("core: split level %d above transfer level %d: %w", s, y, dcerr.ErrBadLevel)
	}
	width := TasksAtLevel(alg.Arity(), s)
	cpu := min(max(int(alpha*float64(width)+0.5), 0), width)
	devices = devices[:min(len(devices), width-cpu)]
	return division{s: s, y: y, cpu: cpu, devs: devices, grain: cfg.Grain}, nil
}

// RunAdvancedHybridCtx executes the §5.2 advanced work division
// (Algorithm 8). At the split level the subproblems are partitioned
// α : (1−α); the CPU solves its portion breadth-first while the GPU solves
// the rest bottom-up through level y, hands it back (the second and last
// transfer), and the CPU finishes everything above. CPU-side work of both
// chains shares the same p cores, as in the paper's two-thread
// implementation. The split level defaults to DefaultSplit; override it with
// WithSplit. ctx is checked at every level boundary of all three chains.
func RunAdvancedHybridCtx(ctx context.Context, be Backend, alg GPUAlg, alpha float64, y int, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	if err := checkAlphaY(alg, alpha, y); err != nil {
		return Report{}, err
	}
	if be.GPU() == nil {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	d, err := splitDivision(be, &r.cfg, alg, alpha, y, []LevelExecutor{be.GPU()})
	if err != nil {
		return Report{}, err
	}
	r.execute(ctx, alg, alg, AdvancedHybridStrategy, d)
	r.rep[0].CPUPortionSeconds = since(r.chains[chCPU].end, r.forkAt())
	if len(r.devs()) > 0 {
		r.rep[0].GPUPortionSeconds = since(r.devs()[0].stamps[stampHome], r.forkAt())
	}
	return r.report()
}
