// Package serve multiplexes many concurrent divide-and-conquer jobs over a
// pool of shared backends. The paper's executors (Algorithms 3/8, §5) run
// one job to completion on a dedicated HPU; a production deployment instead
// sees a stream of jobs of mixed sizes competing for one or more CPU+GPU
// pairs, so the serving layer adds what the single-run model leaves out:
// bounded admission with backpressure, per-job context cancellation and
// deadlines, a weighted-fair dispatch order so one large mergesort cannot
// starve a queue of small scans, and load-aware placement across devices.
//
// Admission is a bounded queue: Submit returns an error wrapping
// dcerr.ErrQueueFull once QueueDepth jobs are waiting, pushing load shedding
// to the caller. Dispatch is stride scheduling over the job weights set with
// core.WithPriority: each queued job receives a virtual finish tag
// pass + 1/weight, and placement always takes the smallest tag, which
// degrades to strict FIFO when all weights are equal and approaches
// weight-proportional service under contention while remaining
// starvation-free. The server runs no scheduler goroutine: placement happens
// synchronously wherever work or capacity appears (Submit, a job releasing
// its slot, AddBackend), and a placed job starts at once. Placement is
// join-shortest-modeled-work over the pool's
// devices, each with its own execution slots, circuit breaker and drain
// state (pool.go). Execution itself reuses the context-aware executors of
// internal/core, so a canceled job stops at its next level boundary and
// yields a partial core.Report.
//
// Backends that are not core.Autonomous (the virtual-time simulator, whose
// event engine is single-goroutine) are driven with at most one job in
// flight each; real-goroutine backends interleave up to MaxInFlight jobs,
// whose level batches then compete for the backend's worker pools.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Strategy selects which executor a job runs under.
type Strategy int

const (
	// Sequential runs the single-core recursive baseline.
	Sequential Strategy = iota
	// BreadthFirstCPU runs level-parallel on the CPU only.
	BreadthFirstCPU
	// BasicHybrid runs the §5.1 basic work division (needs a GPUAlg and a
	// backend with a GPU).
	BasicHybrid
	// AdvancedHybrid runs the §5.2 advanced work division (needs a GPUAlg
	// and a backend with a GPU).
	AdvancedHybrid
	// GPUOnly runs everything on the device.
	GPUOnly
	// Auto lets the server pick the strategy at placement: the device's
	// online calibration (internal/autotune) prices BreadthFirstCPU,
	// GPUOnly, every BasicHybrid crossover and an (α, y) grid of
	// AdvancedHybrid divisions for the job's N, and the argmin runs. The
	// job's Alpha/Y/Crossover fields are ignored; the chosen strategy and
	// parameters are stamped into Report.AutoStrategy. Until the
	// calibration warms up (and for algorithms without model hooks or
	// GPUAlg), the decision comes from the uncalibrated analytic model.
	Auto
)

// String returns the strategy's report name.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return core.SequentialStrategy
	case BreadthFirstCPU:
		return core.BreadthFirstCPUStrategy
	case BasicHybrid:
		return core.BasicHybridStrategy
	case AdvancedHybrid:
		return core.AdvancedHybridStrategy
	case GPUOnly:
		return core.GPUOnlyStrategy
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Job describes one divide-and-conquer job.
type Job struct {
	// Alg is the instance to solve. For BasicHybrid, AdvancedHybrid and
	// GPUOnly it must implement core.GPUAlg.
	Alg core.Alg
	// Strategy selects the executor.
	Strategy Strategy
	// Alpha and Y parameterize AdvancedHybrid (the §5.2 α and transfer
	// level).
	Alpha float64
	Y     int
	// Crossover parameterizes BasicHybrid (the §5.1 switch level).
	Crossover int
	// Opts are per-job execution options (core.WithCoalesce,
	// core.WithSplit, core.WithPriority, ...). Options passed to Submit are
	// appended after these.
	Opts []core.Option
	// Fresh builds a new, unexecuted instance of the same problem. It is
	// required whenever the job's reliability policy can execute more than
	// once (WithRetry, WithHedge, WithFallback): a faulted attempt may have
	// partially mutated its instance, so re-execution always starts from a
	// fresh one. The instance that produced the job's result is available
	// from Handle.ResultAlg. Must be safe to call from the server's
	// goroutines.
	Fresh func() (core.Alg, error)
}

// Config is the resolved form of the Options passed to New or NewPool:
// each Option sets one of its fields.
type Config struct {
	// Backend is the shared execution platform — device 0 of the pool.
	// Required unless Pool is set.
	Backend core.Backend
	// Pool, when set, is the full device list; Backend defaults to Pool[0].
	Pool []core.Backend
	// QueueDepth bounds the admission queue; Submit rejects with
	// ErrQueueFull beyond it. Defaults to 64.
	QueueDepth int
	// MaxInFlight bounds how many jobs execute concurrently on each device.
	// Defaults to 4. Clamped to 1 per device whose backend is not
	// core.Autonomous (the single-goroutine simulator).
	MaxInFlight int
	// Trace, if non-nil, records one "queue" and one "job" span per job,
	// plus the job's batches and transfers through a per-job scope.
	Trace *trace.Recorder
	// Metrics, if non-nil, receives the server's operational metrics and is
	// forwarded to every job's executor.
	Metrics *metrics.Registry
	// MaxFusedJobs caps how many same-kind GPUOnly jobs one fused execution
	// may absorb. Values below 2 disable fusion (the default).
	MaxFusedJobs int
	// BatchWindow is how long a dispatched fusable job lingers for
	// same-kind companions to arrive before executing, when fewer than
	// MaxFusedJobs are already queued. 0 (the default) fuses only with jobs
	// already waiting in the queue.
	BatchWindow time.Duration
	// FusedBytesCap bounds the summed per-job transfer sizes (GPUBytes of
	// the whole instance) one fused execution may carry; 0 means unbounded.
	FusedBytesCap int64
	// BreakerThreshold enables the per-device circuit breakers: after this
	// many consecutive device-fault attempts on one device its GPU path is
	// shed (jobs reroute to other devices, fall back to the CPU path, or
	// fail with ErrDegraded) until a cooldown probe succeeds. 0 (the
	// default) disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before admitting a
	// half-open probe job. Defaults to 100ms when the breaker is enabled.
	BreakerCooldown time.Duration
	// AutoDrain lets a device whose breaker trips drain itself out of the
	// pool (unless it is the last active device): it takes no further
	// placements and is removed once idle.
	AutoDrain bool
	// Faults, if non-nil, wraps every attempt's backend with the fault
	// injector — the chaos-testing hook (see internal/faults). Fused
	// executions bypass it.
	Faults *faults.Injector
	// DeviceFaults overrides Faults per device id, so a chaos run can make
	// one pool member flaky while the rest stay healthy.
	DeviceFaults map[int]*faults.Injector
	// Tuner is the auto-strategy calibrator consulted for Strategy Auto
	// jobs and fed by every clean attempt's measurements. Nil lets the
	// server create a fresh one on demand; set it (WithAutoTuner) to share
	// or persist calibration across servers and restarts.
	Tuner *autotune.Tuner
}

// Stats is a point-in-time snapshot of the server's aggregate counters.
type Stats struct {
	// Submitted counts accepted submissions; Rejected counts queue-full
	// rejections (not included in Submitted).
	Submitted, Rejected uint64
	// Completed, Canceled and Failed partition finished jobs: clean runs,
	// runs that stopped on a canceled context (including expired deadlines
	// and cancellations while still queued), and runs whose executor
	// returned any other error.
	Completed, Canceled, Failed uint64
	// QueueDepth and InFlight are current occupancies (the admission queue,
	// and all devices' execution slots); MaxQueueDepth is the high-water mark
	// of the admission queue.
	QueueDepth, InFlight, MaxQueueDepth int
	// AvgQueueWaitSeconds is the mean wall-clock time dispatched jobs spent
	// queued.
	AvgQueueWaitSeconds float64
	// BusySeconds is total wall-clock execution time across finished jobs
	// (virtual seconds on a simulated backend).
	BusySeconds float64
	// FusedRuns counts fused executions (≥ 2 members each); FusedJobs
	// counts the jobs that finished as members of one. FusedJobs over all
	// finished jobs is the fusion ratio exported as MetricFusionRatio.
	FusedRuns, FusedJobs uint64
	// Retries counts re-executed attempts after device faults; Fallbacks
	// counts CPU fallback executions (including breaker-shed jobs admitted
	// straight to the CPU path); HedgeWins counts jobs whose CPU hedge beat
	// the device path; Degraded counts GPU-bound jobs shed by open circuit
	// breakers (rejected at Submit or failed at dispatch with ErrDegraded).
	Retries, Fallbacks, HedgeWins, Degraded uint64
	// BreakerTrips counts closed/half-open → open transitions summed over
	// all devices; BreakerState is the worst current state across active
	// devices (BreakerClosed, BreakerHalfOpen, BreakerOpen). Both are zero
	// when the breakers are disabled.
	BreakerTrips uint64
	BreakerState int
	// Rebalanced counts placed jobs whose device's breaker tripped before
	// their first attempt and that went back to the queue (re-placed
	// elsewhere, fairness order intact); Drains counts completed device
	// drains.
	Rebalanced, Drains uint64
	// Devices snapshots each pool member, indexed by device id (including
	// removed ones, whose ids stay reserved).
	Devices []DeviceStats
}

// Handle tracks one submitted job.
type Handle struct {
	// ID is the server-assigned submission sequence number.
	ID   uint64
	done chan struct{}

	// Written exactly once before done is closed.
	rep       core.Report
	err       error
	queueWait float64
	attempts  int
	hedgeWon  bool
	fellBack  bool
	resultAlg core.Alg
}

// Done returns a channel closed when the job has finished (successfully,
// canceled, or failed). It is the non-blocking composition point: select
// across many handles' Done channels, then read Err or Report.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Err reports the job's terminal error without blocking: nil while the job
// is still running and after a clean completion, the execution error
// otherwise. Select on Done first to distinguish "running" from "clean".
func (h *Handle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Wait blocks until the job finishes or ctx is canceled. A ctx cancellation
// abandons only the wait — the job keeps running under its own submission
// context — and returns ctx's cause. A finished job always wins: once Done
// is closed, Wait returns the job's outcome even if ctx is already expired,
// so the job's own error (including ErrDegraded and ErrCanceled from the
// submission context) takes precedence over the wait context's.
func (h *Handle) Wait(ctx context.Context) (core.Report, error) {
	select {
	case <-h.done:
		return h.rep, h.err
	default:
	}
	select {
	case <-h.done:
		return h.rep, h.err
	case <-ctx.Done():
		return core.Report{}, fmt.Errorf("serve: wait for job %d: %w", h.ID, context.Cause(ctx))
	}
}

// Report blocks until the job finishes and returns its Report and error.
// On cancellation the error wraps dcerr.ErrCanceled and the Report is
// partial.
func (h *Handle) Report() (core.Report, error) {
	<-h.done
	return h.rep, h.err
}

// QueueWaitSeconds reports how long the job waited for dispatch; valid after
// Done is closed.
func (h *Handle) QueueWaitSeconds() float64 {
	<-h.done
	return h.queueWait
}

// Attempts blocks until the job finishes and reports how many executions
// the serving layer ran for it: 1 for a plain job, more under retry,
// hedging or fallback, 0 for a job canceled while still queued (and for
// members of a fused execution, which run exactly once by construction).
func (h *Handle) Attempts() int {
	<-h.done
	return h.attempts
}

// HedgeWon blocks until the job finishes and reports whether its result
// came from the CPU hedge rather than the primary device path.
func (h *Handle) HedgeWon() bool {
	<-h.done
	return h.hedgeWon
}

// FellBack blocks until the job finishes and reports whether its result
// came from the graceful-degradation CPU path (WithFallback) after the
// device path failed or was shed by the circuit breaker.
func (h *Handle) FellBack() bool {
	<-h.done
	return h.fellBack
}

// ResultAlg blocks until the job finishes and returns the instance holding
// the job's result: the submitted Job.Alg normally, or the fresh instance
// (Job.Fresh) that won when a retry, hedge or fallback produced the result.
// Callers that read output data out of their algorithm after Wait must read
// it from ResultAlg when the job carries a re-executing policy.
func (h *Handle) ResultAlg() core.Alg {
	<-h.done
	return h.resultAlg
}

// queued is one admission-queue entry.
type queued struct {
	h       *Handle
	ctx     context.Context
	job     Job
	opts    []core.Option
	weight  int
	vfinish float64
	seq     uint64
	wallIn  time.Time
	// fuseKey is the fusion compatibility class ("" when the job cannot
	// fuse); gpuBytes is the job's whole-instance transfer size, used
	// against FusedBytesCap; cost is the modeled work placement
	// weighs. All computed at admission.
	fuseKey  string
	gpuBytes int64
	cost     float64
	// pol is the job's reliability policy; probe marks it as a circuit
	// breaker's half-open probe (it must report its verdict exactly once);
	// forceCPU routes it straight to the CPU fallback path (admitted or
	// placed while every breaker was open).
	pol      core.Reliability
	probe    bool
	forceCPU bool
	// plan is what the job runs on its device, set at placement and reset
	// when the job goes back to the queue.
	plan plan
}

// plan is a placed job's strategy and parameters: the Job's own for a fixed
// strategy, or the placement-time decision for Strategy Auto, priced against
// the placed device's calibration. predicted is that decision's makespan,
// fed back as the model-error sample when calibrated says the calibration
// backed it.
type plan struct {
	strat      Strategy
	crossover  int
	alpha      float64
	y          int
	predicted  float64
	calibrated bool
}

// jobHeap orders queued jobs by (virtual finish tag, arrival), the stride
// scheduling dispatch order.
type jobHeap []*queued

func (q jobHeap) Len() int { return len(q) }
func (q jobHeap) Less(i, j int) bool {
	if q[i].vfinish != q[j].vfinish {
		return q[i].vfinish < q[j].vfinish
	}
	return q[i].seq < q[j].seq
}
func (q jobHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobHeap) Push(x any)   { *q = append(*q, x.(*queued)) }
func (q *jobHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Server schedules concurrent jobs over a pool of shared backends.
type Server struct {
	cfg Config

	mu       sync.Mutex
	queue    jobHeap
	devices  []*device
	pass     float64 // stride scheduling global pass (advances on placement)
	seq      uint64
	inflight int
	closed   bool
	stats    Stats
	waitSum  float64
	waitN    uint64

	jobs sync.WaitGroup // one count per running job and per hedge-loser drain

	// tuner is the auto-strategy calibrator (never nil after New).
	// autoActive gates feeding it: it flips on when a tuner was configured
	// explicitly or the first Auto job arrives, so servers that never use
	// Strategy Auto pay nothing.
	tuner      *autotune.Tuner
	autoActive atomic.Bool

	// Reliability counters are atomics because the breaker callbacks fire
	// under a breaker's own lock, where taking mu would invert the
	// placement lock order (mu → breaker.mu).
	nRetries, nFallbacks, nHedgeWins atomic.Uint64
	nDegraded, nTrips                atomic.Uint64

	// fuseWaiters holds, per fusion key, the notification channels of
	// dispatched jobs lingering in their batch window; Submit pokes them
	// when a matching job arrives. Guarded by mu.
	fuseWaiters map[string][]chan struct{}

	// Operational instruments; nil (no-op) unless Config.Metrics was set.
	mSubmitted, mRejected  *metrics.Counter
	mCompleted             *metrics.Counter
	mCanceled, mFailed     *metrics.Counter
	mQueueDepth, mQueueMax *metrics.Gauge
	mInFlight              *metrics.Gauge
	mFusedJobs, mFusedRuns *metrics.Counter
	mFusionRatio           *metrics.Float
	mRetries, mFallbacks   *metrics.Counter
	mHedgeWins, mDegraded  *metrics.Counter
	mBreakerTrips          *metrics.Counter
	mBreakerState          *metrics.Gauge
	mRebalances, mDrains   *metrics.Counter
	lastFusionRatio        float64                    // last value pushed to mFusionRatio, under mu
	waitHists, turnHists   map[int]*metrics.Histogram // keyed by priority, under mu
}

// New starts a server multiplexing jobs over the shared backend,
// configured by functional options (WithQueueDepth, WithMaxInFlight,
// WithMetrics, WithRecorder). Call Close to stop it; Close drains
// already-accepted jobs.
func New(be core.Backend, opts ...Option) (*Server, error) {
	return newServer(Config{Backend: be}, opts)
}

// NewPool starts a server sharding jobs across a pool of backends — one
// device per backend, each with its own execution slots, circuit breaker and
// drain state — placed by modeled work (pool.go). The pool can
// grow and shrink at runtime with AddBackend and DrainBackend.
func NewPool(pool []core.Backend, opts ...Option) (*Server, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("serve: empty backend pool: %w", dcerr.ErrBadParam)
	}
	return newServer(Config{Pool: pool}, opts)
}

// newServer resolves opts onto cfg, validates and defaults the result, and
// builds the server's devices.
func newServer(cfg Config, opts []Option) (*Server, error) {
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if len(cfg.Pool) == 0 {
		cfg.Pool = []core.Backend{cfg.Backend}
	}
	if cfg.Backend == nil {
		cfg.Backend = cfg.Pool[0]
	}
	for i, be := range cfg.Pool {
		if be == nil {
			return nil, fmt.Errorf("serve: nil backend (device %d): %w", i, dcerr.ErrBadParam)
		}
		if c, ok := be.(core.Closer); ok && c.Closed() {
			return nil, fmt.Errorf("serve: device %d: %w", i, dcerr.ErrBackendClosed)
		}
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: QueueDepth %d: %w", cfg.QueueDepth, dcerr.ErrBadParam)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("serve: MaxInFlight %d: %w", cfg.MaxInFlight, dcerr.ErrBadParam)
	}
	if cfg.BatchWindow < 0 {
		return nil, fmt.Errorf("serve: BatchWindow %v: %w", cfg.BatchWindow, dcerr.ErrBadParam)
	}
	if cfg.FusedBytesCap < 0 {
		return nil, fmt.Errorf("serve: FusedBytesCap %d: %w", cfg.FusedBytesCap, dcerr.ErrBadParam)
	}
	if cfg.BreakerThreshold < 0 || cfg.BreakerCooldown < 0 {
		return nil, fmt.Errorf("serve: breaker threshold %d cooldown %v: %w",
			cfg.BreakerThreshold, cfg.BreakerCooldown, dcerr.ErrBadParam)
	}
	if cfg.BreakerThreshold > 0 && cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 100 * time.Millisecond
	}
	s := &Server{
		cfg:         cfg,
		fuseWaiters: map[string][]chan struct{}{},
		tuner:       cfg.Tuner,
	}
	if s.tuner == nil {
		s.tuner = autotune.NewTuner()
	} else {
		s.autoActive.Store(true)
	}
	if cfg.Metrics != nil {
		s.tuner.AttachMetrics(cfg.Metrics)
	}
	if reg := cfg.Metrics; reg != nil {
		s.mSubmitted = reg.Counter(MetricSubmitted)
		s.mRejected = reg.Counter(MetricRejected)
		s.mCompleted = reg.Counter(MetricCompleted)
		s.mCanceled = reg.Counter(MetricCanceled)
		s.mFailed = reg.Counter(MetricFailed)
		s.mQueueDepth = reg.Gauge(MetricQueueDepth)
		s.mQueueMax = reg.Gauge(MetricQueueDepthMax)
		s.mInFlight = reg.Gauge(MetricInFlight)
		s.mFusedJobs = reg.Counter(MetricFusedJobs)
		s.mFusedRuns = reg.Counter(MetricFusedRuns)
		s.mFusionRatio = reg.Float(MetricFusionRatio)
		s.mRetries = reg.Counter(MetricRetries)
		s.mFallbacks = reg.Counter(MetricFallbacks)
		s.mHedgeWins = reg.Counter(MetricHedgeWins)
		s.mDegraded = reg.Counter(MetricDegraded)
		s.mBreakerTrips = reg.Counter(MetricBreakerTrips)
		s.mBreakerState = reg.Gauge(MetricBreakerState)
		s.mRebalances = reg.Counter(MetricRebalances)
		s.mDrains = reg.Counter(MetricDrains)
		s.waitHists = map[int]*metrics.Histogram{}
		s.turnHists = map[int]*metrics.Histogram{}
	}
	for i, be := range cfg.Pool {
		s.devices = append(s.devices, s.newDevice(i, be))
	}
	return s, nil
}

// Submit enqueues a job. It returns immediately with a Handle, or an error
// wrapping dcerr.ErrQueueFull when the admission queue is at capacity,
// dcerr.ErrServerClosed after Close, dcerr.ErrDegraded when every device's
// circuit breaker is shedding GPU-bound work (unless the job carries a
// CPUOnly fallback, which is admitted on the CPU path instead), or
// dcerr.ErrBadParam for an invalid job — including a reliability policy
// that can re-execute (WithRetry, WithHedge, WithFallback) on a job with no
// Fresh factory. ctx governs the job's whole lifetime: canceling it (or
// passing a deadline) stops the job at its next level boundary, or skips it
// entirely if it is still queued.
func (s *Server) Submit(ctx context.Context, job Job, opts ...core.Option) (*Handle, error) {
	if job.Alg == nil {
		return nil, fmt.Errorf("serve: nil algorithm: %w", dcerr.ErrBadParam)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	merged := make([]core.Option, 0, len(job.Opts)+len(opts))
	merged = append(merged, job.Opts...)
	merged = append(merged, opts...)
	rc := core.NewRunConfig(merged...)
	pol := rc.Reliability
	if pol.MaxRetries < 0 || pol.Backoff < 0 || pol.Deadline < 0 || pol.Hedge < 0 {
		return nil, fmt.Errorf("serve: negative reliability policy %+v: %w", pol, dcerr.ErrBadParam)
	}
	if pol.Reexecutes() && job.Fresh == nil {
		return nil, fmt.Errorf("serve: reliability policy re-executes but Job.Fresh is nil: %w", dcerr.ErrBadParam)
	}
	if job.Strategy == Auto {
		// From here on, attempts feed the calibration.
		s.autoActive.Store(true)
	}
	weight := rc.Priority
	fuseKey := s.fuseClass(job, rc)
	var gpuBytes int64
	if galg, ok := job.Alg.(core.GPUAlg); ok {
		gpuBytes = galg.GPUBytes(0, 0, 1)
	}
	cost := modeledCost(job.Alg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: %w", dcerr.ErrServerClosed)
	}
	if qd := len(s.queue); qd >= s.cfg.QueueDepth {
		s.stats.Rejected++
		s.mRejected.Inc()
		return nil, fmt.Errorf("serve: %d jobs queued: %w", qd, dcerr.ErrQueueFull)
	}
	var forceCPU bool
	if gpuBound(job.Strategy) && s.cfg.BreakerThreshold > 0 && !s.anyHealthyGPULocked(nil) {
		if pol.Fallback == core.FallbackCPUOnly {
			forceCPU = true
		} else {
			s.noteDegraded()
			return nil, fmt.Errorf("serve: GPU path shed by open circuit breaker: %w", dcerr.ErrDegraded)
		}
	}
	s.seq++
	h := &Handle{ID: s.seq, done: make(chan struct{}), resultAlg: job.Alg}
	q := &queued{
		h:        h,
		ctx:      ctx,
		job:      job,
		opts:     merged,
		weight:   weight,
		vfinish:  s.pass + 1/float64(weight),
		seq:      s.seq,
		wallIn:   time.Now(),
		fuseKey:  fuseKey,
		gpuBytes: gpuBytes,
		cost:     cost,
		pol:      pol,
		forceCPU: forceCPU,
	}
	heap.Push(&s.queue, q)
	if fuseKey != "" {
		for _, w := range s.fuseWaiters[fuseKey] {
			select {
			case w <- struct{}{}:
			default:
			}
		}
	}
	s.stats.Submitted++
	s.mSubmitted.Inc()
	// The high-water mark counts the job before placement can take it.
	qd := len(s.queue)
	s.mQueueMax.Max(int64(qd))
	if qd > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = qd
	}
	s.pumpLocked()
	return h, nil
}

// latencyHists returns the wait and turnaround histograms for a priority,
// creating and caching them on first use. Must be called with s.mu held;
// returns nils when metrics are disabled.
func (s *Server) latencyHists(priority int) (wait, turnaround *metrics.Histogram) {
	if s.waitHists == nil {
		return nil, nil
	}
	wait, ok := s.waitHists[priority]
	if !ok {
		wait = s.cfg.Metrics.Histogram(fmt.Sprintf(MetricWaitSecondsFmt, priority))
		s.waitHists[priority] = wait
		turnaround = s.cfg.Metrics.Histogram(fmt.Sprintf(MetricTurnaroundSecondsFmt, priority))
		s.turnHists[priority] = turnaround
		return wait, turnaround
	}
	return wait, s.turnHists[priority]
}

// Stats returns a snapshot of the aggregate counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.InFlight = s.inflight
	if s.waitN > 0 {
		st.AvgQueueWaitSeconds = s.waitSum / float64(s.waitN)
	}
	st.Retries = s.nRetries.Load()
	st.Fallbacks = s.nFallbacks.Load()
	st.HedgeWins = s.nHedgeWins.Load()
	st.Degraded = s.nDegraded.Load()
	st.BreakerTrips = s.nTrips.Load()
	st.Devices = make([]DeviceStats, len(s.devices))
	for i, d := range s.devices {
		ds := DeviceStats{
			ID:         d.id,
			InFlight:   d.inflight,
			Placements: d.placements,
			Draining:   d.draining,
			Removed:    d.removed,
		}
		if d.breaker != nil {
			ds.BreakerState = d.breaker.stateNow()
			ds.BreakerTrips = d.trips.Load()
			if !d.removed && ds.BreakerState > st.BreakerState {
				st.BreakerState = ds.BreakerState
			}
		}
		st.Devices[i] = ds
	}
	return st
}

// Close stops admission and drains: already-accepted jobs (queued and in
// flight) run to completion — or to their contexts' cancellation — before
// Close returns. A second Close returns an error wrapping
// dcerr.ErrServerClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: %w", dcerr.ErrServerClosed)
	}
	s.closed = true
	s.mu.Unlock()
	// Queued jobs need no help to drain: a job waits in the queue only while
	// some device it could run on is full, and each job leaving a slot
	// places the next. Waiting is race-free: with closed set, Submit and
	// AddBackend start nothing, so every later jobs.Add — the placement in
	// finishJobLocked, the hedge-loser drain — runs inside a job that still
	// holds its own count, and the counter never rises from zero.
	s.jobs.Wait()
	return nil
}

// run executes one placed job on its device and settles its handle. A
// fusable job first tries to absorb same-kind queued companions into one
// fused execution (see fusion.go); the single-job path below is both the
// normal case and the fusion-declined fallback.
func (s *Server) run(d *device, q *queued) {
	defer s.jobs.Done()
	if q.fuseKey != "" && s.runFused(d, q) {
		return
	}
	q.h.queueWait = time.Since(q.wallIn).Seconds()

	var rep core.Report
	var err error
	if q.ctx.Err() != nil {
		// Canceled while still queued: never touches the backend. A probe
		// token held since placement is released without a verdict.
		s.feedBreaker(d, q, verdictAbandon)
		rep, err = q.neverRan(canceledWhileQueued, dcerr.ErrCanceled)
	} else {
		rep, err = s.executeReliable(d, q)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, errRequeued) {
		// The device's breaker tripped between placement and the first
		// attempt and another device can still serve the GPU path: put the
		// job back in the queue (fairness tag intact) instead of degrading
		// it. The slot release below places it again, and an Auto job is
		// priced afresh against its next device.
		q.probe = false
		q.plan = plan{}
		heap.Push(&s.queue, q)
		s.stats.Rebalanced++
		s.mRebalances.Inc()
		s.finishJobLocked(d, q)
		return
	}
	q.h.rep, q.h.err = rep, err
	s.finishJobLocked(d, q)
	s.settleLocked(q)
}

// The two ways a job settles without reaching a backend.
const (
	canceledWhileQueued = "serve: job %d canceled while queued: %w"
	shedAtDispatch      = "serve: job %d: GPU path shed at dispatch: %w"
)

// neverRan is the outcome of a job that settles without reaching a backend:
// a partial report, and the reason wrapping the sentinel callers classify it
// by.
func (q *queued) neverRan(reason string, sentinel error) (core.Report, error) {
	return core.Report{Algorithm: q.job.Alg.Name(), Strategy: q.job.Strategy.String(), Partial: true},
		fmt.Errorf(reason, q.h.ID, sentinel)
}

// settleLocked settles jobs whose outcome — h.rep, h.err, h.queueWait — is
// written: outcome counters, wait accounting and latency histograms first,
// done last, so whoever sees a handle done also sees the job in Stats. Must
// hold s.mu.
func (s *Server) settleLocked(jobs ...*queued) {
	for _, q := range jobs {
		s.waitSum += q.h.queueWait
		s.waitN++
		s.stats.BusySeconds += q.h.rep.Seconds
		switch err := q.h.err; {
		case err == nil:
			s.stats.Completed++
			s.mCompleted.Inc()
		case errors.Is(err, dcerr.ErrCanceled):
			s.stats.Canceled++
			s.mCanceled.Inc()
		default:
			s.stats.Failed++
			s.mFailed.Inc()
		}
		wait, turnaround := s.latencyHists(q.weight)
		wait.Observe(q.h.queueWait)
		turnaround.Observe(time.Since(q.wallIn).Seconds())
	}
	s.updateFusionRatioLocked()
	for _, q := range jobs {
		close(q.h.done)
	}
}

// updateFusionRatioLocked pushes the current fused-jobs-over-finished-jobs
// ratio to the MetricFusionRatio float (an Add-only accumulator, so the
// gauge semantics are emulated by adding the delta). Must hold s.mu.
func (s *Server) updateFusionRatioLocked() {
	if s.mFusionRatio == nil {
		return
	}
	finished := s.stats.Completed + s.stats.Canceled + s.stats.Failed
	if finished == 0 {
		return
	}
	ratio := float64(s.stats.FusedJobs) / float64(finished)
	s.mFusionRatio.Add(ratio - s.lastFusionRatio)
	s.lastFusionRatio = ratio
}

// runStrategy runs one attempt of alg under p to the matching context-aware
// executor. alg and p are parameters (not read off the job) because
// reliability policies substitute both: retries and hedges run fresh
// instances, and the hedge/fallback paths run BreadthFirstCPU whatever the
// job's plan was.
func runStrategy(ctx context.Context, be core.Backend, alg core.Alg, p plan, opts []core.Option) (core.Report, error) {
	switch p.strat {
	case Sequential:
		return core.RunSequentialCtx(ctx, be, alg, opts...)
	case BreadthFirstCPU:
		return core.RunBreadthFirstCPUCtx(ctx, be, alg, opts...)
	case BasicHybrid, AdvancedHybrid, GPUOnly:
		galg, ok := alg.(core.GPUAlg)
		if !ok {
			return core.Report{}, fmt.Errorf("serve: %s is not a GPUAlg (strategy %s): %w",
				alg.Name(), p.strat, dcerr.ErrBadParam)
		}
		switch p.strat {
		case BasicHybrid:
			return core.RunBasicHybridCtx(ctx, be, galg, p.crossover, opts...)
		case AdvancedHybrid:
			return core.RunAdvancedHybridCtx(ctx, be, galg, p.alpha, p.y, opts...)
		default:
			return core.RunGPUOnlyCtx(ctx, be, galg, opts...)
		}
	}
	return core.Report{}, fmt.Errorf("serve: unknown strategy %d: %w", int(p.strat), dcerr.ErrBadParam)
}
