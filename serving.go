package hybriddc

import (
	"fmt"
	"io"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Context-aware executors. Each checks its context at every level boundary;
// on cancellation it stops within one boundary and returns a partial Report
// together with an error wrapping ErrCanceled. They accept the run options
// (WithCoalesce, WithSplit, WithGrain, WithTrace, WithMetrics,
// WithSpanRecorder); Server.Submit also reads WithPriority and the
// reliability policies.
var (
	// RunSequentialCtx is RunSequential with cancellation and options.
	RunSequentialCtx = core.RunSequentialCtx
	// RunBreadthFirstCPUCtx is RunBreadthFirstCPU with cancellation and
	// options.
	RunBreadthFirstCPUCtx = core.RunBreadthFirstCPUCtx
	// RunBasicHybridCtx is RunBasicHybrid with cancellation and options.
	RunBasicHybridCtx = core.RunBasicHybridCtx
	// RunAdvancedHybridCtx is RunAdvancedHybrid with cancellation and
	// options; alpha and y are passed directly and the split level comes
	// from WithSplit (default: DefaultSplit).
	RunAdvancedHybridCtx = core.RunAdvancedHybridCtx
	// RunGPUOnlyCtx is RunGPUOnly with cancellation and options.
	RunGPUOnlyCtx = core.RunGPUOnlyCtx
)

// Option configures a single execution or a Server submission.
type Option = core.Option

// WithCoalesce enables the §6.3 coalescing layout transformation around the
// device-resident phase (a no-op for non-Transformable algorithms).
func WithCoalesce() Option { return core.WithCoalesce() }

// WithSplit pins the advanced division's split level instead of deriving it
// with DefaultSplit; a negative value restores the default.
func WithSplit(s int) Option { return core.WithSplit(s) }

// WithPriority sets the job's scheduling weight for Server.Submit: under
// contention a weight-w job is dispatched roughly w times as often as a
// weight-1 job, and FIFO order is kept among equal weights. Direct executors
// ignore it.
func WithPriority(w int) Option { return core.WithPriority(w) }

// GrainAuto selects the leaf-coarsening grain automatically from the CPU
// parallelism (DESIGN.md §11).
const GrainAuto = core.GrainAuto

// WithGrain sets the leaf-coarsening grain for the run's CPU portion: the
// bottom ⌊log_a(n)⌋ breadth-first levels collapse into one cache-friendly
// depth-first chunk per subtree (at most n leaves each). 0 or 1 runs every
// level; GrainAuto, the default on the native backend (the simulator runs
// level by level), keeps all CPU workers busy. Results are bit-identical.
func WithGrain(n int) Option { return core.WithGrain(n) }

// WithTrace records the execution's timeline and, when the run finishes
// (even canceled), writes a one-line summary, an ASCII Gantt chart, and
// per-unit utilization to w.
func WithTrace(w io.Writer) Option {
	return func(c *core.RunConfig) {
		rec := trace.NewRecorder()
		trace.Record(rec)(c)
		core.WithObserver(func(r *core.Report) {
			state := ""
			if r.Partial {
				state = " (partial: canceled)"
			}
			fmt.Fprintf(w, "%s %s: %.6fs%s\n", r.Algorithm, r.Strategy, r.Seconds, state)
			io.WriteString(w, rec.Gantt(72))
			for unit, u := range rec.Utilization() {
				fmt.Fprintf(w, "%5s utilization: %.1f%%\n", unit, 100*u)
			}
		})(c)
	}
}

// Serving layer: a multi-job scheduler over a backend pool.
type (
	// Server multiplexes concurrent D&C jobs over a pool of one or more
	// backends with bounded admission (ErrQueueFull), per-job context
	// cancellation, weighted-fair dispatch, and load-aware placement.
	// AddBackend and DrainBackend change the pool at runtime. See
	// internal/serve for the full semantics.
	Server = serve.Server
	// ServerOption configures a Server at construction (WithQueueDepth,
	// WithMaxInFlight, WithServerMetrics, WithServerRecorder,
	// WithMaxFusedJobs, WithBreaker, WithServerFaults, WithDeviceFaults,
	// WithAutoDrain, WithAutoTuner).
	ServerOption = serve.Option
	// JobSpec describes one job for Server.Submit. Jobs carrying a
	// re-executing reliability policy (WithRetry, WithHedge, WithFallback)
	// must also set Fresh, the factory re-execution starts from.
	JobSpec = serve.Job
	// JobHandle tracks a submitted job. Report (or Wait, which also honors
	// a caller context) blocks for the result; Done returns a channel
	// closed at settlement and Err peeks at the outcome without blocking,
	// so handles compose with select loops. Wait and Err surface the error
	// taxonomy sentinels: ErrCanceled for cancellations and expired
	// deadlines, ErrDeviceFault for device-path failures, ErrRetriesExhausted
	// once a retry policy is spent, ErrDegraded when the circuit breaker
	// shed the job, ErrQueueFull/ErrServerClosed from admission — all
	// classifiable with errors.Is through every wrapping layer. After a
	// retry, hedge or fallback produced the result, ResultAlg returns the
	// instance that holds it (Attempts, HedgeWon and FellBack report how it
	// got there).
	JobHandle = serve.Handle
	// ServerStats is a Server.Stats snapshot of the aggregate counters.
	ServerStats = serve.Stats
	// JobStrategy selects a job's executor.
	JobStrategy = serve.Strategy
	// DeviceStats is one device's slice of a ServerStats snapshot.
	DeviceStats = serve.DeviceStats
)

// Job strategies.
const (
	// JobSequential runs the single-core recursive baseline.
	JobSequential = serve.Sequential
	// JobBreadthFirstCPU runs level-parallel on the CPU only.
	JobBreadthFirstCPU = serve.BreadthFirstCPU
	// JobBasicHybrid runs the §5.1 basic work division.
	JobBasicHybrid = serve.BasicHybrid
	// JobAdvancedHybrid runs the §5.2 advanced work division.
	JobAdvancedHybrid = serve.AdvancedHybrid
	// JobGPUOnly runs everything on the device.
	JobGPUOnly = serve.GPUOnly
	// JobAuto lets the server's online calibrator price every strategy
	// against the placed device's learned cost model at dispatch and run the
	// cheapest one; Report.AutoStrategy records the pick. Until the
	// calibrator has enough observations it falls back to the paper's
	// analytic §5 model (DESIGN.md §16).
	JobAuto = serve.Auto
)

// NewServer starts a job server over the backend; call Close to stop it.
// The defaults (queue depth 64, four jobs in flight, no observability) are
// adjusted with ServerOptions:
//
//	reg := hybriddc.NewMetrics()
//	srv, err := hybriddc.NewServer(be,
//	    hybriddc.WithQueueDepth(256),
//	    hybriddc.WithServerMetrics(reg))
func NewServer(be Backend, opts ...ServerOption) (*Server, error) {
	return serve.New(be, opts...)
}

// NewServerPool starts a job server sharded across a pool of backends —
// one set of execution slots, breaker, and fault domain per device — with
// placement on the device with the least modeled backlog, on top of the same
// weighted-fair global schedule. The pool changes at runtime through Server.AddBackend
// and Server.DrainBackend:
//
//	srv, err := hybriddc.NewServerPool([]hybriddc.Backend{be0, be1},
//	    hybriddc.WithBreaker(3, time.Second),
//	    hybriddc.WithAutoDrain())
func NewServerPool(pool []Backend, opts ...ServerOption) (*Server, error) {
	return serve.NewPool(pool, opts...)
}

// WithQueueDepth bounds the server's admission queue: Submit rejects with
// ErrQueueFull once n jobs are waiting.
func WithQueueDepth(n int) ServerOption { return serve.WithQueueDepth(n) }

// WithMaxInFlight bounds how many jobs the server executes concurrently
// (clamped to 1 on non-autonomous backends such as the simulator).
func WithMaxInFlight(n int) ServerOption { return serve.WithMaxInFlight(n) }

// WithServerMetrics directs the server's operational metrics — admission
// and outcome counters, queue-depth and in-flight gauges, per-priority wait
// and turnaround histograms — into the registry, and forwards the registry
// to every job's executor. One scrape therefore sees both layers.
func WithServerMetrics(reg *Metrics) ServerOption { return serve.WithMetrics(reg) }

// WithServerRecorder records per-job spans into rec: one "queue" and one
// "job" span per job plus every batch and transfer, all stamped with the
// job ID. Combine with NewTraceRecorderLimit for bounded memory.
func WithServerRecorder(rec *TraceRecorder) ServerOption { return serve.WithRecorder(rec) }

// WithMaxFusedJobs enables job fusion: when the server starts a GPUOnly
// job whose algorithm kind matches other queued GPUOnly jobs, up to n of
// them execute as one fused breadth-first run — one kernel launch per
// recursion level across all members, pipelined transfers — while each
// JobHandle still settles with its own Report. n < 2 (the default) disables
// fusion. Per-job results are bit-identical to unfused runs.
func WithMaxFusedJobs(n int) ServerOption { return serve.WithMaxFusedJobs(n) }

// WithBreaker enables the server's per-backend circuit breaker: after
// threshold consecutive device-fault attempts, GPU-bound admission is shed
// with ErrDegraded (jobs carrying WithFallback(CPUOnly) run on the CPU path
// instead) until a post-cooldown probe job succeeds. DESIGN.md §12 has the
// state machine.
func WithBreaker(threshold int, cooldown time.Duration) ServerOption {
	return serve.WithBreaker(threshold, cooldown)
}

// WithServerFaults wraps every job attempt's backend with the fault
// injector — the chaos-testing hook exercised by TestChaosSoak.
func WithServerFaults(in *FaultInjector) ServerOption { return serve.WithFaults(in) }

// WithDeviceFaults overrides WithServerFaults for one pool device, so a
// chaos run can make a single pool member flaky while the rest stay
// healthy — the setup that exercises per-device breaker isolation.
func WithDeviceFaults(dev int, in *FaultInjector) ServerOption {
	return serve.WithDeviceFaults(dev, in)
}

// WithAutoDrain lets a device whose circuit breaker trips drain itself out
// of the pool: it takes no further placements, in-flight work finishes, and
// the device is removed. The last active device never auto-drains. Off by
// default; meaningful only with WithBreaker.
func WithAutoDrain() ServerOption { return serve.WithAutoDrain() }

// AutoTuner is the online calibrator behind JobAuto: per-device,
// per-(algorithm, size-class) cost rates refit from the measured timings of
// every clean job attempt. Persist it with MarshalJSON at shutdown and
// restore with LoadAutoTuner + WithAutoTuner so a restarted server skips
// the cold start. DESIGN.md §16.
type AutoTuner = autotune.Tuner

// NewAutoTuner returns a cold-start calibrator (Decide falls back to the
// analytic §5 model until it has autotune.DefaultMinObs observations per
// algorithm and size class).
func NewAutoTuner() *AutoTuner { return autotune.NewTuner() }

// LoadAutoTuner restores a calibrator persisted with AutoTuner.MarshalJSON.
func LoadAutoTuner(data []byte) (*AutoTuner, error) { return autotune.LoadTuner(data) }

// WithAutoTuner installs a pre-built (typically persisted-and-restored)
// calibrator for JobAuto, so a restarted server keeps its learned cost
// model instead of re-deriving it from live traffic.
func WithAutoTuner(t *AutoTuner) ServerOption { return serve.WithAutoTuner(t) }

// Per-job reliability policies, accepted (like any Option) by JobSpec.Opts
// or Server.Submit. All re-executing policies require JobSpec.Fresh.
var (
	// WithRetry re-executes a device-faulted job up to max more times on
	// fresh instances, pausing backoff between attempts; exhaustion fails
	// the job with an error matching both ErrRetriesExhausted and
	// ErrDeviceFault.
	WithRetry = serve.WithRetry
	// WithDeadline bounds the job's total execution budget (attempts,
	// hedges and fallbacks included) from dispatch; expiry fails the job
	// with ErrCanceled.
	WithDeadline = serve.WithDeadline
	// WithHedge starts a breadth-first CPU duplicate of a straggling
	// GPU-bound job after the given delay; the first clean result wins and
	// the loser is canceled. Ignored on non-autonomous backends.
	WithHedge = serve.WithHedge
	// WithFallback selects the degradation path: with CPUOnly, a job whose
	// device attempts are spent transparently re-runs breadth-first on the
	// CPU engine with bit-identical results.
	WithFallback = serve.WithFallback
)

// FallbackMode selects a job's degradation path for WithFallback.
type FallbackMode = serve.FallbackMode

// CPUOnly re-runs device-failed jobs on the CPU engine; see WithFallback.
const CPUOnly = serve.CPUOnly

// Circuit breaker states, as reported by ServerStats.BreakerState and the
// serve_breaker_state gauge.
const (
	BreakerClosed   = serve.BreakerClosed
	BreakerHalfOpen = serve.BreakerHalfOpen
	BreakerOpen     = serve.BreakerOpen
)

// Fault injection (chaos testing): deterministic, seeded device failures
// beneath the executors. See internal/faults for the fault taxonomy.
type (
	// FaultsConfig configures a FaultInjector: a seed, per-attempt fault
	// rates by kind, and stall/trigger shaping.
	FaultsConfig = faults.Config
	// FaultInjector hands out per-attempt fault plans; attach it to a
	// Server with WithServerFaults.
	FaultInjector = faults.Injector
	// FaultCounts snapshots what an injector has done (FaultInjector.Counts).
	FaultCounts = faults.Counts
)

// NewFaultInjector validates cfg and returns a deterministic fault
// injector for chaos testing.
func NewFaultInjector(cfg FaultsConfig) (*FaultInjector, error) { return faults.New(cfg) }

// TraceRecorder collects execution spans (see WithServerRecorder and the
// internal/trace package).
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty span recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
