// Package native runs the generic divide-and-conquer framework on real
// goroutines instead of the virtual-time simulator: a fixed CPU worker pool
// of p goroutines and, optionally, a wide "device" pool standing in for the
// GPU. It implements core.Backend with wall-clock timing.
//
// Both pools are backed by a work-stealing engine (engine.go): each worker
// owns a bounded Chase-Lev deque of index-range spans, Submit turns a batch
// into at most p spans, and workers that notice hungry peers halve their
// current range so load balances by stealing rather than by up-front
// chunking. Idle workers spin briefly, then park; the steady state takes no
// locks and performs no allocation per Submit.
//
// On a machine without a real GPU the device pool is just more goroutines on
// the same cores, so it cannot reproduce the paper's speed ratios — its
// purpose is (a) making the library genuinely useful for multi-core D&C
// parallelism, and (b) exercising every executor under real concurrency
// (including -race) in tests. The simulated backend in internal/hpu is the
// one that reproduces the paper's numbers.
package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"

	"repro/internal/dcerr"
)

// Metric names recorded by the backend when Config.Metrics is set;
// semantics in DESIGN.md §9 and §11. The {cpu,gpu} pair of each name is
// produced by prefixing PoolCPU or PoolGPU.
const (
	MetricChunks           = "_chunks_total"
	MetricTasks            = "_tasks_total"
	MetricSteals           = "_steals_total"
	MetricBusyWorkers      = "_busy_workers"
	MetricSubmitAfterClose = "native_submit_after_close_total"
)

// Pool name prefixes for the per-pool metrics.
const (
	PoolCPU = "native_cpu"
	PoolGPU = "native_gpu"
)

// Config describes a native backend.
type Config struct {
	// CPUWorkers is the CPU pool size p. Defaults to runtime.GOMAXPROCS(0).
	CPUWorkers int
	// DeviceLanes is the device pool size (the stand-in for g). 0 disables
	// the device, yielding a CPU-only backend.
	DeviceLanes int
	// Gamma is the γ the planners should assume for the device. It has no
	// effect on actual execution speed. Defaults to 1/16 when a device is
	// configured.
	Gamma float64
	// TransferDelay, if nonzero, sleeps this long per host↔device transfer
	// to mimic link latency.
	TransferDelay time.Duration
	// Metrics, if non-nil, receives pool occupancy gauges, chunk/task/steal
	// counters, and the count of submissions that raced Close (whose work
	// is dropped while their completion chains still unwind). Nil disables
	// metrics at zero cost.
	Metrics *metrics.Registry
}

// Backend is a real-goroutine hybrid platform.
type Backend struct {
	cfg     Config
	cpu     *engine
	gpu     *engine
	start   time.Time
	pending sync.WaitGroup
	closed  atomic.Bool

	// Transfers run on one long-lived worker (in link order, matching the
	// simulator's in-order copy queue) instead of one goroutine per
	// crossing. transferMu fences enqueue against Close so no request is
	// stranded in the queue after the worker drains and exits.
	transferQ  chan func()
	quit       chan struct{}
	transferMu sync.RWMutex
}

var _ core.Backend = (*Backend)(nil)

// New starts the worker pools. Call Close to stop them.
func New(cfg Config) (*Backend, error) {
	if cfg.CPUWorkers <= 0 {
		cfg.CPUWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.DeviceLanes < 0 {
		return nil, fmt.Errorf("native: negative DeviceLanes %d: %w", cfg.DeviceLanes, dcerr.ErrBadParam)
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 1.0 / 16
	}
	if cfg.Gamma < 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("native: Gamma must be in (0,1), got %g: %w", cfg.Gamma, dcerr.ErrBadParam)
	}
	b := &Backend{
		cfg:       cfg,
		start:     time.Now(),
		transferQ: make(chan func(), 64),
		quit:      make(chan struct{}),
	}
	go b.transferWorker()
	b.cpu = newEngine(cfg.CPUWorkers, &b.pending, cfg.Metrics, PoolCPU)
	if cfg.DeviceLanes > 0 {
		b.gpu = newEngine(cfg.DeviceLanes, &b.pending, cfg.Metrics, PoolGPU)
	}
	return b, nil
}

// Close stops the worker pools. The backend must be idle. Close is
// idempotent: the first call returns nil, every later call returns an error
// wrapping dcerr.ErrBackendClosed. Work submitted after Close is not
// executed; its completion callbacks fire immediately so chains unwind
// instead of deadlocking (executors guard with Closed first).
func (b *Backend) Close() error {
	if b.closed.Swap(true) {
		return fmt.Errorf("native: %w", dcerr.ErrBackendClosed)
	}
	b.cpu.close()
	if b.gpu != nil {
		b.gpu.close()
	}
	// Stop the transfer worker. Taking the write lock after flipping
	// closed guarantees no transfer can enqueue afterwards: every enqueue
	// holds the read lock and re-checks closed inside it.
	b.transferMu.Lock()
	close(b.quit)
	b.transferMu.Unlock()
	return nil
}

// Closed reports whether Close has been called. It implements core.Closer,
// so executors and the serving layer refuse new work with ErrBackendClosed.
func (b *Backend) Closed() bool { return b.closed.Load() }

// ProbeDevice implements core.DeviceProber: the health check the serving
// layer's circuit breaker runs before risking a half-open probe job. The
// device path is unhealthy once the backend is closed or was built without
// device lanes.
func (b *Backend) ProbeDevice() error {
	if b.closed.Load() {
		return fmt.Errorf("native: probe: %w", dcerr.ErrBackendClosed)
	}
	if b.gpu == nil {
		return fmt.Errorf("native: probe: %w", dcerr.ErrNoGPU)
	}
	return nil
}

// Autonomous implements core.Autonomous: submitted work progresses on the
// pools' own goroutines, so concurrent runs sharing this backend complete
// independently without driving Wait.
func (b *Backend) Autonomous() bool { return true }

// CPU implements core.Backend.
func (b *Backend) CPU() core.LevelExecutor { return b.cpu }

// GPU implements core.Backend. A CPU-only backend must return an untyped
// nil, not an interface holding a nil *engine.
func (b *Backend) GPU() core.LevelExecutor {
	if b.gpu == nil {
		return nil
	}
	return b.gpu
}

// GPUGamma implements core.Backend.
func (b *Backend) GPUGamma() float64 {
	if b.gpu == nil {
		return 0
	}
	return b.cfg.Gamma
}

// transfer mimics a link crossing. Crossings are serviced in order by the
// long-lived transfer worker — the link is one shared resource, as in the
// simulator — falling back to a dedicated goroutine only when the queue is
// full or the backend is closing (so chains always unwind).
func (b *Backend) transfer(done func()) {
	b.pending.Add(1)
	run := func() {
		defer b.pending.Done()
		if b.cfg.TransferDelay > 0 {
			time.Sleep(b.cfg.TransferDelay)
		}
		if done != nil {
			done()
		}
	}
	b.transferMu.RLock()
	if !b.closed.Load() {
		select {
		case b.transferQ <- run:
			b.transferMu.RUnlock()
			return
		default:
		}
	}
	b.transferMu.RUnlock()
	go run()
}

// transferWorker services the transfer queue until Close, then drains
// whatever was already enqueued and exits.
func (b *Backend) transferWorker() {
	for {
		select {
		case run := <-b.transferQ:
			run()
		case <-b.quit:
			for {
				select {
				case run := <-b.transferQ:
					run()
				default:
					return
				}
			}
		}
	}
}

// TransferToGPU implements core.Backend.
func (b *Backend) TransferToGPU(n int64, done func()) { b.transfer(done) }

// TransferToCPU implements core.Backend.
func (b *Backend) TransferToCPU(n int64, done func()) { b.transfer(done) }

// Now implements core.Backend: wall-clock seconds since construction.
func (b *Backend) Now() float64 { return time.Since(b.start).Seconds() }

// Wait implements core.Backend: blocks until all submitted work, including
// chained completions, has finished.
func (b *Backend) Wait() { b.pending.Wait() }
