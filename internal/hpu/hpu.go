// Package hpu assembles a Hybrid Processing Unit (§3.2 of the paper): a
// simulated multi-core CPU, a simulated GPU device, and the host↔device link
// with transfer cost λ + δ·w, under one discrete-event engine. It implements
// core.Backend and defines the two experimental platforms of Table 1/2.
package hpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simcpu"
	"repro/internal/simgpu"
	"repro/internal/vtime"

	"repro/internal/dcerr"
)

// LinkParams describes the host↔device interconnect. Transferring w bytes
// takes LatencySec + w·SecPerByte seconds, serialized on the link.
type LinkParams struct {
	Name       string
	LatencySec float64
	SecPerByte float64
}

// Validate reports whether the parameters are usable.
func (l LinkParams) Validate() error {
	if l.LatencySec < 0 || l.SecPerByte < 0 {
		return fmt.Errorf("hpu: link parameters must be nonnegative, got λ=%g δ=%g: %w",
			l.LatencySec, l.SecPerByte, dcerr.ErrBadParam)
	}
	return nil
}

// Platform is the full specification of an HPU: a CPU, a GPU and their link.
type Platform struct {
	Name string
	CPU  simcpu.Params
	GPU  simgpu.Params
	Link LinkParams
}

// Validate reports whether the platform is usable.
func (p Platform) Validate() error {
	if err := p.CPU.Validate(); err != nil {
		return err
	}
	if err := p.GPU.Validate(); err != nil {
		return err
	}
	return p.Link.Validate()
}

// Sim is a simulated HPU. It implements core.Backend; all execution advances
// a virtual clock.
type Sim struct {
	platform Platform
	eng      *vtime.Engine
	cpu      *simcpu.CPU
	gpu      *simgpu.GPU
	// transferred accumulates bytes moved across the link, for reports.
	transferred int64
}

var _ core.Backend = (*Sim)(nil)

// NewSim builds a simulated HPU for the platform.
func NewSim(p Platform) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng := vtime.New()
	cpu, err := simcpu.New(eng, p.CPU)
	if err != nil {
		return nil, err
	}
	gpu, err := simgpu.New(eng, p.GPU)
	if err != nil {
		return nil, err
	}
	return &Sim{
		platform: p,
		eng:      eng,
		cpu:      cpu,
		gpu:      gpu,
	}, nil
}

// MustSim is NewSim panicking on error, for use with the built-in platforms.
func MustSim(p Platform) *Sim {
	s, err := NewSim(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Platform returns the simulated platform's specification.
func (s *Sim) Platform() Platform { return s.platform }

// SetMetrics attaches a registry to the simulated device so kernel-launch
// observability (wavefront occupancy, coalesced vs uncoalesced word
// traffic) is recorded; see simgpu.SetMetrics. Host-side transfer metrics
// come from the executors' core.WithMetrics instead.
func (s *Sim) SetMetrics(reg *metrics.Registry) { s.gpu.SetMetrics(reg) }

// Engine exposes the event engine (for estimation harnesses that schedule
// their own probes).
func (s *Sim) Engine() *vtime.Engine { return s.eng }

// CPU implements core.Backend.
func (s *Sim) CPU() core.LevelExecutor { return s.cpu }

// GPU implements core.Backend.
func (s *Sim) GPU() core.LevelExecutor { return s.gpu }

// GPUGamma implements core.Backend.
func (s *Sim) GPUGamma() float64 { return s.gpu.Gamma() }

// transfer models one DMA in either direction. Transfers are priced by the
// link (λ + δ·w) and serialize on the device's copy queue, which runs
// concurrently with the compute queue — so an upload can overlap a kernel,
// as the pipelined fused executor requires.
func (s *Sim) transfer(n int64, done func()) {
	if n < 0 {
		panic(fmt.Sprintf("hpu: negative transfer size %d", n))
	}
	s.transferred += n
	d := s.platform.Link.LatencySec + float64(n)*s.platform.Link.SecPerByte
	s.gpu.SubmitCopy(d, done)
}

// TransferToGPU implements core.Backend.
func (s *Sim) TransferToGPU(n int64, done func()) { s.transfer(n, done) }

// TransferToCPU implements core.Backend.
func (s *Sim) TransferToCPU(n int64, done func()) { s.transfer(n, done) }

// TransferredBytes reports total bytes moved across the link so far.
func (s *Sim) TransferredBytes() int64 { return s.transferred }

// LinkBusySeconds reports accumulated seconds the link (the device copy
// queue) spent servicing transfers.
func (s *Sim) LinkBusySeconds() float64 { return s.gpu.CopyBusySeconds() }

// TransferSeconds reports the modeled duration of a single n-byte transfer.
func (s *Sim) TransferSeconds(n int64) float64 {
	return s.platform.Link.LatencySec + float64(n)*s.platform.Link.SecPerByte
}

// StallDevice occupies the device's in-order compute queue with a synthetic
// hung launch of the given normalized op cost, then calls done. The fault
// injector uses it to model a stuck kernel in virtual time.
func (s *Sim) StallDevice(ops float64, done func()) {
	s.gpu.Stall(s.gpu.ItemSeconds(core.Cost{Ops: ops}), done)
}

// ProbeDevice implements core.DeviceProber. The simulated device cannot be
// lost, so a bare Sim always probes healthy; fault-injecting wrappers
// interpose their own answer.
func (s *Sim) ProbeDevice() error { return nil }

// Now implements core.Backend: the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.eng.Now() }

// Wait implements core.Backend: runs the event loop until all submitted work
// and chained completions have finished.
func (s *Sim) Wait() { s.eng.Run() }
