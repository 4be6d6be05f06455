package core

import (
	"time"

	"repro/internal/metrics"
)

// Fallback selects where a job re-runs after its device path failed.
type Fallback int

const (
	// FallbackNone disables fallback: a device fault is returned to the
	// caller once the retry policy (if any) is exhausted.
	FallbackNone Fallback = iota
	// FallbackCPUOnly re-runs the job breadth-first on the CPU engine with
	// bit-identical results, and lets the serving layer admit GPU-bound
	// jobs while its circuit breaker has the device path open.
	FallbackCPUOnly
)

// Reliability is a job's fault-handling policy, interpreted by serving
// layers (direct executors ignore it, like Priority). Zero value means no
// policy: one attempt, no deadline, no hedge, no fallback.
type Reliability struct {
	// MaxRetries is how many times a device-fault-classified attempt is
	// re-executed (on a fresh instance from Job.Fresh) before giving up.
	MaxRetries int
	// Backoff is the pause between attempts.
	Backoff time.Duration
	// Deadline is the job's total budget from submission; once it expires
	// the job stops at its next level boundary with ErrCanceled.
	Deadline time.Duration
	// Hedge, when HedgeSet, duplicates a GPU-bound job on the CPU path
	// after this much time without a result; first result wins.
	Hedge    time.Duration
	HedgeSet bool
	// Fallback selects the degradation path after retries are exhausted.
	Fallback Fallback
}

// Zero reports whether no reliability policy is configured.
func (r Reliability) Zero() bool { return r == Reliability{} }

// Reexecutes reports whether the policy can run more than one attempt, and
// therefore needs a fresh-instance factory (serve.Job.Fresh).
func (r Reliability) Reexecutes() bool {
	return r.MaxRetries > 0 || r.HedgeSet || r.Fallback != FallbackNone
}

// RunConfig is the resolved form of a list of Options: the per-run knobs
// shared by every executor. Construct it with Resolve; zero values mean
// "default".
type RunConfig struct {
	// Split is the advanced division's split level; meaningful only when
	// SplitSet is true, otherwise DefaultSplit is used.
	Split    int
	SplitSet bool
	// Coalesce applies the §6.3 memory-layout transformation around the
	// GPU-resident phase when the algorithm implements Transformable.
	Coalesce bool
	// Priority is the scheduling weight used by serving layers (higher is
	// dispatched sooner under contention). Direct executors ignore it.
	Priority int
	// Intervals, if non-nil, receives every batch and transfer the run
	// measures (WithIntervals).
	Intervals func(Interval)
	// Observe, if non-nil, runs on the final Report before the executor
	// returns (after a partial, canceled run too).
	Observe func(*Report)
	// Metrics, if non-nil, receives the run's execution metrics (batch
	// latencies, busy/idle time, transfer traffic; names in DESIGN.md §9).
	Metrics *metrics.Registry
	// Grain is the leaf-coarsening grain for the CPU portion (DESIGN.md
	// §11): 1 disables coarsening, GrainAuto selects it from the CPU
	// parallelism, n > 1 collapses the bottom ⌊log_a(n)⌋ levels, 0 is unset
	// (execute resolves it). Set with WithGrain.
	Grain int
	// Reliability is the job's fault-handling policy, used by serving
	// layers (retry, deadline, hedge, CPU fallback; see serve.WithRetry and
	// friends). Direct executors ignore it.
	Reliability Reliability
	// AutoStrategy names the strategy an auto-tuning serving layer chose
	// for this run; executors stamp it into Report.AutoStrategy verbatim.
	// Set with WithAutoStrategy (by the serving layer, not callers).
	AutoStrategy string
}

// Option configures a single execution. Options are accepted by the
// context-aware executors (RunSequentialCtx, RunBasicHybridCtx,
// RunAdvancedHybridCtx, RunGPUOnlyCtx) and by the serving layer's Submit.
type Option func(*RunConfig)

// Resolve sets c to the defaults with opts applied in order; nil options are
// ignored. An Option writes through its pointer, so c escapes wherever it
// lives: a serving layer resolves a job's options into the job's own heap
// record, an executor into its run's.
func (c *RunConfig) Resolve(opts []Option) {
	*c = RunConfig{Priority: 1}
	for _, o := range opts {
		if o != nil {
			o(c)
		}
	}
}

// WithCoalesce enables the §6.3 coalescing layout transformation around the
// device-resident phase (a no-op for algorithms that are not Transformable).
func WithCoalesce() Option {
	return func(c *RunConfig) { c.Coalesce = true }
}

// WithSplit pins the advanced division's split level (Algorithm 8's
// threshold level) instead of deriving it with DefaultSplit. A negative s
// restores the default.
func WithSplit(s int) Option {
	return func(c *RunConfig) {
		if s < 0 {
			c.SplitSet = false
			return
		}
		c.Split, c.SplitSet = s, true
	}
}

// WithPriority sets the job's scheduling weight for serving layers; weights
// below 1 are clamped to 1. Direct executors ignore it.
func WithPriority(w int) Option {
	return func(c *RunConfig) {
		if w < 1 {
			w = 1
		}
		c.Priority = w
	}
}

// WithMetrics directs the run's execution metrics into the registry: one
// batch latency histogram per unit, CPU/GPU busy and idle time, and transfer
// bytes/counts split by direction (metric names in DESIGN.md §9). A nil
// registry disables metrics (the default); the disabled path performs no
// allocation and no atomic work.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *RunConfig) { c.Metrics = reg }
}

// WithIntervals registers f to receive every Interval of the run: each
// non-empty batch and each transfer, as the interpreter completes it.
// Multiple hooks chain in registration order. On an autonomous backend (the
// native one) the chains of a run complete on different goroutines, so f may
// run concurrently with itself.
func WithIntervals(f func(Interval)) Option {
	return func(c *RunConfig) {
		if f == nil {
			return
		}
		prev := c.Intervals
		if prev == nil {
			c.Intervals = f
			return
		}
		c.Intervals = func(iv Interval) {
			prev(iv)
			f(iv)
		}
	}
}

// WithAutoStrategy records the auto-tuner's chosen strategy name so the
// run's Report carries it (Report.AutoStrategy). The serving layer applies
// it to attempts of auto-submitted jobs; it has no effect on execution.
func WithAutoStrategy(name string) Option {
	return func(c *RunConfig) { c.AutoStrategy = name }
}

// WithObserver registers f to run on the final Report before the executor
// returns. Multiple observers chain in registration order.
func WithObserver(f func(*Report)) Option {
	return func(c *RunConfig) {
		if f == nil {
			return
		}
		prev := c.Observe
		c.Observe = func(r *Report) {
			if prev != nil {
				prev(r)
			}
			f(r)
		}
	}
}
