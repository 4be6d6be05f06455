package serve

import (
	"time"

	"repro/internal/autotune"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Option configures a Server at construction. Options are accepted by New
// and applied over the defaults (QueueDepth 64, MaxInFlight 4, no metrics,
// no tracing).
type Option func(*Config)

// WithQueueDepth bounds the admission queue: Submit rejects with
// ErrQueueFull once n jobs are waiting. n <= 0 is rejected by New.
func WithQueueDepth(n int) Option {
	return func(c *Config) { c.QueueDepth = n }
}

// WithMaxInFlight bounds how many jobs execute concurrently on the backend.
// The bound is clamped to 1 when the backend is not core.Autonomous (the
// single-goroutine simulator must never be driven from two goroutines).
func WithMaxInFlight(n int) Option {
	return func(c *Config) { c.MaxInFlight = n }
}

// WithMetrics directs the server's operational metrics into the registry:
// submission/outcome counters, queue-depth and in-flight gauges, and
// per-priority wait and turnaround histograms (names in DESIGN.md §9). The
// registry is also forwarded to every job's executor via core.WithMetrics,
// so one scrape sees both layers. A nil registry disables metrics (the
// default) at zero per-submit cost.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithRecorder records spans into rec: one "queue" and one "job" span per
// job, plus — through a per-job scope wrapped around the backend — every
// batch and transfer the job's executor submits, all stamped with the job
// ID. Use trace.NewRecorderLimit for a server that should trace
// continuously at bounded memory.
func WithRecorder(rec *trace.Recorder) Option {
	return func(c *Config) { c.Trace = rec }
}

// WithMaxFusedJobs enables job fusion: when the server starts a GPUOnly
// job whose algorithm kind matches other queued GPUOnly jobs, up to n of
// them execute as one fused breadth-first run — one kernel launch per
// recursion level across all members, pipelined transfers — with per-job
// Handles settling independently (core.RunFusedGPUCtx). n < 2 disables
// fusion, the default. Fusion never reorders dispatch: the stride scheduler
// still picks the head job; fusion only lets compatible followers ride
// along, so per-job results remain bit-identical to unfused runs.
func WithMaxFusedJobs(n int) Option {
	return func(c *Config) { c.MaxFusedJobs = n }
}

// WithBatchWindow lets a dispatched fusable job wait up to d (wall clock)
// for same-kind companions to arrive when fewer than MaxFusedJobs are
// already queued, trading a bounded latency hit for a larger fused launch.
// The default 0 fuses only with jobs already waiting, adding no latency.
func WithBatchWindow(d time.Duration) Option {
	return func(c *Config) { c.BatchWindow = d }
}

// WithFusedBytesCap bounds the summed whole-instance transfer sizes
// (GPUAlg.GPUBytes of the full input) a single fused execution may carry,
// so fusion cannot build a device-resident working set beyond what the
// card holds. 0, the default, is unbounded.
func WithFusedBytesCap(b int64) Option {
	return func(c *Config) { c.FusedBytesCap = b }
}

// WithBreaker enables the per-backend circuit breaker: after threshold
// consecutive device-fault attempts the GPU path is shed — GPU-bound jobs
// are rejected (or fail at dispatch) with ErrDegraded, except jobs carrying
// a CPUOnly fallback, which run on the CPU path instead. After cooldown
// the breaker admits one half-open probe job (consulting the backend's
// core.DeviceProber first, when implemented); the probe's success closes
// the breaker, another fault reopens it. threshold <= 0 disables the
// breaker; cooldown 0 defaults to 100ms. DESIGN.md §12 has the state
// machine.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Config) {
		c.BreakerThreshold = threshold
		c.BreakerCooldown = cooldown
	}
}

// WithFaults wraps every job attempt's backend with the fault injector, so
// a chaos run exercises the reliability policies against deterministic,
// seeded device failures (see internal/faults). Fused executions bypass
// injection.
func WithFaults(in *faults.Injector) Option {
	return func(c *Config) { c.Faults = in }
}

// WithDeviceFaults overrides WithFaults for one pool device, so a chaos run
// can make a single pool member flaky while the rest stay healthy — the
// setup that exercises per-device breaker isolation and re-routing. Like
// WithFaults it wraps every solo attempt placed on the device, whatever the
// job's own options; fused executions bypass it.
func WithDeviceFaults(dev int, in *faults.Injector) Option {
	return func(c *Config) {
		if c.DeviceFaults == nil {
			c.DeviceFaults = map[int]*faults.Injector{}
		}
		c.DeviceFaults[dev] = in
	}
}

// WithAutoTuner installs a pre-built (typically persisted-and-reloaded via
// autotune.LoadTuner) calibrator for Strategy Auto, and has every attempt feed
// it from the first job rather than from the first Auto submission.
// Without this option the server builds a fresh cold-start tuner lazily; the
// option exists so a restarted server keeps its learned per-device cost
// model (DESIGN.md §16).
func WithAutoTuner(t *autotune.Tuner) Option {
	return func(c *Config) { c.Tuner = t }
}

// WithAutoDrain lets a device whose circuit breaker trips drain itself out
// of the pool: it takes no further placements, its in-flight jobs finish
// (GPU-bound ones that had not started yet go back to the queue for
// healthier devices), and the device is removed. The last active device
// never auto-drains — a server keeps at least one execution path. Off by
// default; meaningful only with WithBreaker.
func WithAutoDrain() Option {
	return func(c *Config) { c.AutoDrain = true }
}

// Metric names recorded when WithMetrics is configured; semantics in
// DESIGN.md §9.
const (
	// MetricSubmitted counts accepted submissions; MetricRejected counts
	// queue-full rejections (disjoint).
	MetricSubmitted = "serve_submitted_total"
	MetricRejected  = "serve_rejected_total"
	// MetricCompleted/MetricCanceled/MetricFailed partition finished jobs.
	MetricCompleted = "serve_completed_total"
	MetricCanceled  = "serve_canceled_total"
	MetricFailed    = "serve_failed_total"
	// MetricQueueDepth and MetricInFlight are current occupancies;
	// MetricQueueDepthMax is the queue's high-water mark.
	MetricQueueDepth    = "serve_queue_depth"
	MetricQueueDepthMax = "serve_queue_depth_max"
	MetricInFlight      = "serve_inflight"
	// MetricFusedRuns counts fused executions (≥ 2 members); MetricFusedJobs
	// counts jobs finished as members of one. MetricFusionRatio is
	// MetricFusedJobs over all finished jobs.
	MetricFusedRuns   = "serve_fused_runs_total"
	MetricFusedJobs   = "serve_fused_jobs_total"
	MetricFusionRatio = "serve_fusion_ratio"
	// MetricRetries counts re-executed attempts after device faults;
	// MetricFallbacks counts CPU fallback executions; MetricHedgeWins
	// counts jobs whose CPU hedge beat the device path; MetricDegraded
	// counts GPU-bound jobs shed by the open circuit breaker.
	MetricRetries   = "serve_retries_total"
	MetricFallbacks = "serve_fallbacks_total"
	MetricHedgeWins = "serve_hedge_wins_total"
	MetricDegraded  = "serve_degraded_total"
	// MetricBreakerState is the worst breaker state across active devices
	// (0 closed, 1 half-open, 2 open); MetricBreakerTrips counts
	// transitions to open summed over all devices.
	MetricBreakerState = "serve_breaker_state"
	MetricBreakerTrips = "serve_breaker_trips_total"
	// MetricRebalances counts placed jobs sent back to the queue because
	// their device's breaker tripped before their first attempt;
	// MetricDrains counts completed device drains.
	MetricRebalances = "serve_rebalances_total"
	MetricDrains     = "serve_drains_total"
)

// Per-device metric name formats (the %d is the device id).
const (
	// MetricDevicePlacementsFmt counts jobs placed on the device.
	MetricDevicePlacementsFmt = "serve_placements_total_dev%d"
	// MetricDeviceBreakerStateFmt and MetricDeviceBreakerTripsFmt are the
	// device's own circuit breaker state and trip count.
	MetricDeviceBreakerStateFmt = "serve_breaker_state_dev%d"
	MetricDeviceBreakerTripsFmt = "serve_breaker_trips_dev%d"
)

// Per-priority histogram name formats (the %d is the job's scheduling
// weight): wall-clock wait from admission to dispatch, and turnaround from
// admission to settlement.
const (
	MetricWaitSecondsFmt       = "serve_wait_seconds_p%d"
	MetricTurnaroundSecondsFmt = "serve_turnaround_seconds_p%d"
)
