// Package faults injects deterministic device failures beneath the
// framework's executors, so the serving layer's reliability policies
// (retry, hedge, CPU fallback, circuit breaking) can be exercised — and CI
// can soak them — without real flaky hardware.
//
// An Injector is configured once with a seed and per-kind fault rates and
// then wraps a core.Backend once per execution attempt (Wrap). Each wrap
// draws a fault plan — whether this attempt faults, which kind, and on
// which device operation it fires — as a pure function of the seed and the
// attempt index (a splitmix64 PRF), so a chaos run's fault schedule is
// reproducible from its seed alone, independent of goroutine interleaving.
//
// Fault kinds, mirroring how real hybrid deployments degrade:
//
//   - KernelError: a device kernel launch fails. The device is considered
//     lost for the rest of the attempt: every later submission and transfer
//     short-circuits, so the attempt fails fast.
//   - TransferError: a host↔device transfer corrupts or times out; the
//     device is likewise lost for the rest of the attempt.
//   - StuckLaunch: one device operation hangs for Stall (wall clock on
//     autonomous backends, a synthetic in-order queue occupation on the
//     virtual-time simulator) and then completes normally. The attempt
//     stays correct but straggles — the case hedging and deadlines exist
//     for.
//   - CloseRace: the device vanishes mid-run as if its backend had been
//     closed concurrently; classified under both dcerr.ErrDeviceFault and
//     dcerr.ErrBackendClosed.
//
// Failing attempts never execute the faulted operation or anything after it
// on either unit, so a failed attempt leaves its instance's data
// incomplete, not subtly wrong — which is why the serving layer re-executes
// on a fresh instance (serve.Job.Fresh) rather than in place.
//
// Faults are reported through the core.Faulter interface: executors consult
// it at settlement and classify the run under dcerr.ErrDeviceFault with a
// partial Report.
package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
)

// Kind identifies an injected fault class.
type Kind int

const (
	// None means the attempt runs clean.
	None Kind = iota
	// KernelError fails a device kernel launch.
	KernelError
	// TransferError corrupts a host↔device transfer.
	TransferError
	// StuckLaunch stalls one device operation, then lets it complete.
	StuckLaunch
	// CloseRace makes the device vanish as if its backend closed mid-run.
	CloseRace
)

// String returns the kind's report name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case KernelError:
		return "kernel-error"
	case TransferError:
		return "transfer-error"
	case StuckLaunch:
		return "stuck-launch"
	case CloseRace:
		return "close-race"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config describes an Injector. Rates are per execution attempt: each
// wrapped attempt draws at most one fault, of a kind chosen with
// probability proportional to its rate. The rates must sum to at most 1.
type Config struct {
	// Seed determines the whole fault schedule.
	Seed int64
	// KernelErrorRate, TransferErrorRate, StuckRate and CloseRaceRate are
	// the per-attempt probabilities of each fault kind, each in [0, 1].
	KernelErrorRate   float64
	TransferErrorRate float64
	StuckRate         float64
	CloseRaceRate     float64
	// Stall is how long a StuckLaunch hangs on a wall-clock (autonomous)
	// backend. Defaults to 2ms.
	Stall time.Duration
	// StallOps is the synthetic kernel cost (normalized scalar ops) a
	// StuckLaunch occupies a virtual-time device's in-order queue with.
	// Defaults to 1e6.
	StallOps float64
	// TriggerSpan bounds which device operation of the attempt the fault
	// fires on: a draw uniform in [1, TriggerSpan]. Attempts with fewer
	// device operations than the draw (in particular CPU-only strategies,
	// which have none) run clean. Defaults to 4.
	TriggerSpan int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	sum := 0.0
	for _, r := range []float64{c.KernelErrorRate, c.TransferErrorRate, c.StuckRate, c.CloseRaceRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("faults: rate %g outside [0,1]: %w", r, dcerr.ErrBadParam)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("faults: rates sum to %g > 1: %w", sum, dcerr.ErrBadParam)
	}
	if c.Stall < 0 || c.StallOps < 0 || c.TriggerSpan < 0 {
		return fmt.Errorf("faults: negative stall or trigger span: %w", dcerr.ErrBadParam)
	}
	return nil
}

// Counts is a snapshot of everything an injector has done.
type Counts struct {
	// Attempts is how many execution attempts were wrapped.
	Attempts uint64
	// Injected is how many faults actually fired (an attempt whose plan
	// triggers on a device operation it never reached does not count).
	Injected uint64
	// Per-kind fired counts.
	KernelErrors, TransferErrors, StuckLaunches, CloseRaces uint64
}

// Injector hands out per-attempt fault-injecting backend wrappers.
type Injector struct {
	cfg Config
	seq atomic.Uint64

	injected                            atomic.Uint64
	kernel, transfer, stuck, closeRaces atomic.Uint64
}

// New validates the configuration and returns an injector.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stall == 0 {
		cfg.Stall = 2 * time.Millisecond
	}
	if cfg.StallOps == 0 {
		cfg.StallOps = 1e6
	}
	if cfg.TriggerSpan == 0 {
		cfg.TriggerSpan = 4
	}
	return &Injector{cfg: cfg}, nil
}

// Counts snapshots the injector's activity.
func (in *Injector) Counts() Counts {
	return Counts{
		Attempts:       in.seq.Load(),
		Injected:       in.injected.Load(),
		KernelErrors:   in.kernel.Load(),
		TransferErrors: in.transfer.Load(),
		StuckLaunches:  in.stuck.Load(),
		CloseRaces:     in.closeRaces.Load(),
	}
}

// splitmix64 is the PRF behind the fault schedule: a well-mixed pure
// function of its input, so plans depend only on (seed, attempt, salt).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a PRF output to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// plan draws attempt k's fate.
func (in *Injector) plan(k uint64) (Kind, uint64) {
	seed := uint64(in.cfg.Seed)
	r := unit(splitmix64(seed ^ splitmix64(k) ^ 0xfa017))
	kind := None
	for _, c := range []struct {
		k    Kind
		rate float64
	}{
		{KernelError, in.cfg.KernelErrorRate},
		{TransferError, in.cfg.TransferErrorRate},
		{StuckLaunch, in.cfg.StuckRate},
		{CloseRace, in.cfg.CloseRaceRate},
	} {
		if r < c.rate {
			kind = c.k
			break
		}
		r -= c.rate
	}
	if kind == None {
		return None, 0
	}
	trigger := 1 + splitmix64(seed^splitmix64(k)^0x7419e4)%uint64(in.cfg.TriggerSpan)
	return kind, trigger
}

// Wrap returns a fault-injecting view of be for one execution attempt. The
// attempt's fault plan is fixed at wrap time; the returned backend
// implements core.Backend, core.Autonomous, core.Closer, core.DeviceProber
// and core.Faulter.
func (in *Injector) Wrap(be core.Backend) *Backend {
	k := in.seq.Add(1) - 1
	kind, trigger := in.plan(k)
	f := &Backend{inner: be, in: in, attempt: k, kind: kind, trigger: trigger}
	f.cpu = &faultExecutor{f: f, inner: be.CPU(), gpu: false}
	if g := be.GPU(); g != nil {
		f.gpu = &faultExecutor{f: f, inner: g, gpu: true}
	}
	return f
}

// virtualStaller is implemented by simulated backends that can occupy the
// device's in-order compute queue for a modeled cost (hpu.Sim); it lets a
// StuckLaunch stall virtual time instead of wall time.
type virtualStaller interface {
	StallDevice(ops float64, done func())
}

// Backend is one attempt's fault-injecting view of an inner backend.
type Backend struct {
	inner   core.Backend
	in      *Injector
	attempt uint64
	kind    Kind
	trigger uint64

	ops   atomic.Uint64 // device operations seen so far
	dead  atomic.Bool   // device lost: short-circuit everything
	fault atomic.Pointer[error]

	cpu core.LevelExecutor
	gpu core.LevelExecutor
}

var _ core.Backend = (*Backend)(nil)
var _ core.Faulter = (*Backend)(nil)

// Fault implements core.Faulter.
func (f *Backend) Fault() error {
	if p := f.fault.Load(); p != nil {
		return *p
	}
	return nil
}

// recordFault stores the attempt's fault (first wins) and kills the device.
func (f *Backend) recordFault(err error) {
	f.fault.CompareAndSwap(nil, &err)
	f.dead.Store(true)
	f.in.injected.Add(1)
}

// deviceOp accounts one device interaction and returns what to do with it.
// ok=false means the operation (and everything after it) short-circuits.
func (f *Backend) deviceOp() (stall bool, ok bool) {
	if f.dead.Load() {
		return false, false
	}
	n := f.ops.Add(1)
	if f.kind == None || n != f.trigger {
		return false, true
	}
	switch f.kind {
	case KernelError:
		f.in.kernel.Add(1)
		f.recordFault(fmt.Errorf("faults: injected kernel error (attempt %d, device op %d): %w",
			f.attempt, n, dcerr.ErrDeviceFault))
		return false, false
	case TransferError:
		f.in.transfer.Add(1)
		f.recordFault(fmt.Errorf("faults: injected transfer corruption (attempt %d, device op %d): %w",
			f.attempt, n, dcerr.ErrDeviceFault))
		return false, false
	case CloseRace:
		f.in.closeRaces.Add(1)
		f.recordFault(fmt.Errorf("faults: injected submit-after-close race (attempt %d, device op %d): %w: %w",
			f.attempt, n, dcerr.ErrDeviceFault, dcerr.ErrBackendClosed))
		return false, false
	case StuckLaunch:
		f.in.stuck.Add(1)
		f.in.injected.Add(1)
		return true, true
	}
	return false, true
}

// stallThen delays op by the configured stall — wall clock on autonomous
// backends, a synthetic occupation of the simulated device's in-order queue
// otherwise — and then runs it.
func (f *Backend) stallThen(op func()) {
	if vs, ok := f.inner.(virtualStaller); ok {
		vs.StallDevice(f.in.cfg.StallOps, op)
		return
	}
	if a, ok := f.inner.(core.Autonomous); ok && a.Autonomous() {
		time.AfterFunc(f.in.cfg.Stall, op)
		return
	}
	// No way to model the stall on this backend: run the op directly.
	op()
}

// CPU implements core.Backend.
func (f *Backend) CPU() core.LevelExecutor { return f.cpu }

// GPU implements core.Backend.
func (f *Backend) GPU() core.LevelExecutor {
	if f.gpu == nil {
		return nil
	}
	return f.gpu
}

// GPUGamma implements core.Backend.
func (f *Backend) GPUGamma() float64 { return f.inner.GPUGamma() }

// TransferToGPU implements core.Backend.
func (f *Backend) TransferToGPU(n int64, done func()) {
	f.transfer(n, done, f.inner.TransferToGPU)
}

// TransferToCPU implements core.Backend.
func (f *Backend) TransferToCPU(n int64, done func()) {
	f.transfer(n, done, f.inner.TransferToCPU)
}

func (f *Backend) transfer(n int64, done func(), inner func(int64, func())) {
	stall, ok := f.deviceOp()
	if !ok {
		if done != nil {
			done()
		}
		return
	}
	if stall {
		f.stallThen(func() { inner(n, done) })
		return
	}
	inner(n, done)
}

// Now implements core.Backend.
func (f *Backend) Now() float64 { return f.inner.Now() }

// Wait implements core.Backend.
func (f *Backend) Wait() { f.inner.Wait() }

// Autonomous forwards the inner backend's marker.
func (f *Backend) Autonomous() bool {
	a, ok := f.inner.(core.Autonomous)
	return ok && a.Autonomous()
}

// Closed forwards the inner backend's core.Closer state.
func (f *Backend) Closed() bool {
	c, ok := f.inner.(core.Closer)
	return ok && c.Closed()
}

// ProbeDevice implements core.DeviceProber: a lost device reports its
// fault; otherwise the probe forwards to the inner backend.
func (f *Backend) ProbeDevice() error {
	if err := f.Fault(); err != nil {
		return err
	}
	if p, ok := f.inner.(core.DeviceProber); ok {
		return p.ProbeDevice()
	}
	return nil
}

// faultExecutor interposes the fault plan on one unit's submissions.
type faultExecutor struct {
	f     *Backend
	inner core.LevelExecutor
	gpu   bool
}

var _ core.LevelExecutor = (*faultExecutor)(nil)

// Parallelism implements core.LevelExecutor.
func (e *faultExecutor) Parallelism() int { return e.inner.Parallelism() }

// Submit implements core.LevelExecutor. CPU submissions are never faulted,
// but short-circuit once the device is lost so the doomed attempt fails
// fast instead of finishing its combine phases on garbage.
func (e *faultExecutor) Submit(b core.Batch, done func()) {
	if !e.gpu {
		if e.f.dead.Load() {
			if done != nil {
				done()
			}
			return
		}
		e.inner.Submit(b, done)
		return
	}
	stall, ok := e.f.deviceOp()
	if !ok {
		if done != nil {
			done()
		}
		return
	}
	if stall {
		e.f.stallThen(func() { e.inner.Submit(b, done) })
		return
	}
	e.inner.Submit(b, done)
}
