// Package simgpu models an OpenCL-style GPU device under the discrete-event
// engine of internal/vtime. It implements core.LevelExecutor.
//
// The model follows §3 of the paper: rather than simulating physical
// processing elements cycle by cycle, the device is characterized by the
// observables the HPU model needs — the empirical degree of parallelism g
// (the number of resident work-items that saturates the device, §6.4) and
// the single-thread scalar speed ratio γ relative to one CPU core (Fig 6) —
// plus a latency-hiding factor that separates single-thread speed from
// saturated throughput.
//
// A kernel launch of W uniform work-items of effective per-item cost c takes
//
//	launch + c/(γ·H·R) · slow(W) · max(1, W/g)
//
// seconds, where R is the platform's normalized CPU core rate, H ≥ 1 is the
// latency-hiding factor (saturated per-lane throughput is γ·H·R ops/s), and
//
//	slow(W) = max(1, D, 1 + (H−1)·(g−W)/(g−1) for W < g)
//
// exposes latency when the device is under-occupied (W < g) or when the
// kernel is divergent (D = H for data-dependent control flow, 1 otherwise).
// Consequences, matching the paper:
//
//   - A single work-item runs at γ·R ops/s regardless of kernel shape, so
//     the Fig 6 estimation measures exactly 1/γ.
//   - A divergent kernel (one sequential merge per thread) runs at γ·R per
//     lane even when saturated — the assumption behind every TGPU term in
//     §5's analysis.
//   - A uniform kernel (element-wise sum, the binary-search parallel merge
//     of Fig 9) reaches γ·H·R per lane when saturated, which is what lets
//     the GPU-only parallel mergesort hit the paper's 18–20× speedups.
//   - Fixed total work split across w threads yields the Fig 5 saturation
//     curve with its knee at w = g.
//
// Uncoalesced global access inflates the memory component of c by
// StridePenalty (§6.3). Kernels execute functionally on host memory at
// submit time, spread over the host's cores (core.EachSplit), so data
// transformations really happen; only time is virtual, and it is priced
// from the launch's work-items and cost, never from the host.
// Launches serialize on an in-order command queue, as in the paper's OpenCL
// host programs.
package simgpu

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vtime"

	"repro/internal/dcerr"
)

// Metric names recorded by the device when metrics are attached with
// SetMetrics; semantics in DESIGN.md §9. The coalesced/uncoalesced word
// counters surface the §6.3 access-pattern split that previously only
// inflated modeled cost internally.
const (
	MetricLaunches         = "simgpu_launches_total"
	MetricWavefronts       = "simgpu_wavefronts_total"
	MetricWorkItems        = "simgpu_work_items_total"
	MetricCoalescedWords   = "simgpu_coalesced_words_total"
	MetricUncoalescedWords = "simgpu_uncoalesced_words_total"
	MetricOccupancy        = "simgpu_occupancy"
	MetricCopies           = "simgpu_copies_total"
)

// OccupancyBuckets bound the occupancy histogram: the fraction W/g of the
// device's saturation thread count a launch brings (values above 1 mean
// multiple waves).
var OccupancyBuckets = []float64{0.01, 0.05, 0.25, 0.5, 1, 2, 8}

// Params describes a simulated GPU device.
type Params struct {
	// Name identifies the device in reports (e.g. "ATI Radeon HD 5970").
	Name string
	// SatThreads is g: the number of work-items after which adding more
	// yields no further speedup (Fig 5's knee). It exceeds the physical PE
	// count because of latency hiding.
	SatThreads int
	// PhysicalPEs is the physical processing-element count, reported in
	// the spec table only.
	PhysicalPEs int
	// Gamma is γ < 1: single-thread ops per unit time of one GPU core
	// relative to one CPU core, the quantity Table 2 reports.
	Gamma float64
	// HideFactor is H ≥ 1: the ratio of saturated per-lane throughput to
	// single-thread speed, achieved by latency hiding on uniform kernels.
	// Divergent kernels never benefit from it.
	HideFactor float64
	// BaseRateOpsPerSec anchors γ: one GPU lane at single-thread speed
	// executes Gamma · BaseRateOpsPerSec normalized ops per second. Set it
	// to the platform CPU's RateOpsPerSec.
	BaseRateOpsPerSec float64
	// MemWeight converts one word of global-memory traffic into op
	// equivalents (same convention as simcpu.Params.MemWeight).
	MemWeight float64
	// StridePenalty multiplies the memory component of un-coalesced
	// kernels. 1 disables the coalescing model.
	StridePenalty float64
	// LaunchOverheadSec is the fixed host-side cost of enqueueing a kernel.
	LaunchOverheadSec float64
	// WavefrontWidth is the SIMD width used to price heterogeneous batches
	// (Batch.CostOps): every lane of a wavefront pays its slowest item.
	// 0 means 64, the width of the paper's AMD devices.
	WavefrontWidth int
}

// wavefront returns the effective SIMD width.
func (p Params) wavefront() int {
	if p.WavefrontWidth <= 0 {
		return 64
	}
	return p.WavefrontWidth
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.SatThreads <= 0 {
		return fmt.Errorf("simgpu: SatThreads must be positive, got %d: %w", p.SatThreads, dcerr.ErrBadParam)
	}
	if p.Gamma <= 0 || p.Gamma >= 1 {
		return fmt.Errorf("simgpu: Gamma must be in (0,1), got %g: %w", p.Gamma, dcerr.ErrBadParam)
	}
	if p.HideFactor < 1 {
		return fmt.Errorf("simgpu: HideFactor must be >= 1, got %g: %w", p.HideFactor, dcerr.ErrBadParam)
	}
	if p.BaseRateOpsPerSec <= 0 {
		return fmt.Errorf("simgpu: BaseRateOpsPerSec must be positive, got %g: %w", p.BaseRateOpsPerSec, dcerr.ErrBadParam)
	}
	if p.StridePenalty < 1 {
		return fmt.Errorf("simgpu: StridePenalty must be >= 1, got %g: %w", p.StridePenalty, dcerr.ErrBadParam)
	}
	if p.MemWeight < 0 {
		return fmt.Errorf("simgpu: MemWeight must be nonnegative, got %g: %w", p.MemWeight, dcerr.ErrBadParam)
	}
	return nil
}

// GPU is a simulated device with two in-order command queues: a compute
// queue for kernel launches and a copy queue for host↔device DMAs. As in
// the dual-queue OpenCL idiom, work serializes within each queue but the
// two queues progress concurrently, so a transfer can overlap a kernel —
// the property the pipelined fused executor relies on. (The paper's host
// programs use a single in-order queue; its §5.2 overlap comes from the CPU
// working concurrently, which the model also keeps.)
type GPU struct {
	params Params
	queue  *vtime.Resource
	copy   *vtime.Resource

	// Observability instruments; nil (no-op) until SetMetrics.
	launches    *metrics.Counter
	wavefronts  *metrics.Counter
	workItems   *metrics.Counter
	coalesced   *metrics.Counter
	uncoalesced *metrics.Counter
	occupancy   *metrics.Histogram
	copies      *metrics.Counter
}

var _ core.LevelExecutor = (*GPU)(nil)

// New creates a GPU bound to the given engine.
func New(eng *vtime.Engine, p Params) (*GPU, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &GPU{
		params: p,
		queue:  vtime.NewResource(eng, 1),
		copy:   vtime.NewResource(eng, 1),
	}, nil
}

// SetMetrics attaches a registry to the device: every kernel launch then
// records its wavefront count, occupancy (work-items over g), and the
// coalesced vs uncoalesced global-memory word traffic of §6.3. Call before
// submitting work; a nil registry detaches.
func (g *GPU) SetMetrics(reg *metrics.Registry) {
	g.launches = reg.Counter(MetricLaunches)
	g.wavefronts = reg.Counter(MetricWavefronts)
	g.workItems = reg.Counter(MetricWorkItems)
	g.coalesced = reg.Counter(MetricCoalescedWords)
	g.uncoalesced = reg.Counter(MetricUncoalescedWords)
	g.occupancy = reg.Histogram(MetricOccupancy, OccupancyBuckets...)
	g.copies = reg.Counter(MetricCopies)
}

// Params returns the device parameters.
func (g *GPU) Params() Params { return g.params }

// Parallelism reports g, the saturation thread count.
func (g *GPU) Parallelism() int { return g.params.SatThreads }

// Gamma reports the single-thread ratio γ.
func (g *GPU) Gamma() float64 { return g.params.Gamma }

// BusySeconds reports accumulated device-seconds of kernel service on the
// compute queue.
func (g *GPU) BusySeconds() float64 { return g.queue.BusySeconds() }

// CopyBusySeconds reports accumulated seconds of DMA service on the copy
// queue.
func (g *GPU) CopyBusySeconds() float64 { return g.copy.BusySeconds() }

// SubmitCopy enqueues a host↔device DMA of the given modeled duration on
// the copy queue. Copies serialize among themselves (one DMA engine) but
// overlap kernel launches on the compute queue. The link's cost model
// (λ + δ·w) lives with the platform, so callers pass seconds, not bytes.
func (g *GPU) SubmitCopy(seconds float64, done func()) {
	if g.copies != nil {
		g.copies.Inc()
	}
	g.copy.RequestFixed(seconds, done)
}

// Stall occupies the in-order compute queue for the given modeled duration
// without performing work — a hung kernel launch. Everything already queued
// behind it waits it out, exactly like a real stuck launch on an in-order
// device stream. Used by the fault-injection layer.
func (g *GPU) Stall(seconds float64, done func()) {
	g.queue.RequestFixed(seconds, done)
}

// itemCost is the effective normalized op cost of one work-item.
func (g *GPU) itemCost(c core.Cost) float64 {
	mem := c.MemWords * g.params.MemWeight
	if !c.Coalesced {
		mem *= g.params.StridePenalty
	}
	return c.Ops + mem
}

// ItemSeconds reports how long a single work-item of the given cost takes
// when launched alone (the Fig 6 measurement): exactly c_eff/(γ·R).
func (g *GPU) ItemSeconds(c core.Cost) float64 {
	return g.LaunchSeconds(1, c) - g.params.LaunchOverheadSec
}

// LaunchSeconds reports the modeled duration of a launch of w work-items of
// the given per-item cost, excluding queueing. Exposed so the estimation
// harness (Fig 5) and tests can probe the occupancy curve directly.
func (g *GPU) LaunchSeconds(w int, c core.Cost) float64 {
	if w <= 0 {
		return 0
	}
	p := g.params
	satLaneRate := p.Gamma * p.HideFactor * p.BaseRateOpsPerSec
	itemTime := g.itemCost(c) / satLaneRate

	slow := 1.0
	if w < p.SatThreads && p.SatThreads > 1 {
		// Linear latency exposure from H at a single resident work-item
		// down to 1 at full occupancy.
		frac := float64(p.SatThreads-w) / float64(p.SatThreads-1)
		slow = 1 + (p.HideFactor-1)*frac
	}
	if c.Divergent && p.HideFactor > slow {
		slow = p.HideFactor
	}
	waves := 1.0
	if w > p.SatThreads {
		waves = float64(w) / float64(p.SatThreads)
	}
	return p.LaunchOverheadSec + itemTime*slow*waves
}

// HeterogeneousSeconds prices a batch whose items have individual op counts
// (Batch.CostOps) at wavefront granularity: within each SIMD wavefront all
// lanes execute in lockstep, so every lane pays the wavefront's slowest
// item — the divergence cost the §6.1 one-merge-per-thread kernel suffers
// when run sizes differ.
func (g *GPU) HeterogeneousSeconds(w int, c core.Cost, costOps func(i int) float64) float64 {
	if w <= 0 {
		return 0
	}
	p := g.params
	mem := c.MemWords * p.MemWeight
	if !c.Coalesced {
		mem *= p.StridePenalty
	}
	width := p.wavefront()
	var effTotal, maxItem float64
	for lo := 0; lo < w; lo += width {
		hi := lo + width
		if hi > w {
			hi = w
		}
		waveMax := 0.0
		for i := lo; i < hi; i++ {
			if ops := costOps(i); ops > waveMax {
				waveMax = ops
			}
		}
		waveCost := waveMax + mem
		effTotal += float64(hi-lo) * waveCost
		if waveCost > maxItem {
			maxItem = waveCost
		}
	}
	satLaneRate := p.Gamma * p.HideFactor * p.BaseRateOpsPerSec
	slow := 1.0
	if w < p.SatThreads && p.SatThreads > 1 {
		frac := float64(p.SatThreads-w) / float64(p.SatThreads-1)
		slow = 1 + (p.HideFactor-1)*frac
	}
	if c.Divergent && p.HideFactor > slow {
		slow = p.HideFactor
	}
	bound := math.Max(maxItem, effTotal/float64(p.SatThreads))
	return p.LaunchOverheadSec + slow*bound/satLaneRate
}

// Submit implements core.LevelExecutor: the batch becomes one kernel launch.
// Functional work runs eagerly on host memory, on every host core for a
// large launch (core.EachSplit); the launch occupies the in-order queue for
// the modeled duration.
func (g *GPU) Submit(b core.Batch, done func()) {
	if b.Empty() {
		if done != nil {
			done()
		}
		return
	}
	core.EachSplit(b)
	g.account(b)
	var d float64
	if b.CostOps != nil {
		d = g.HeterogeneousSeconds(b.Tasks, b.Cost, b.CostOps)
	} else {
		d = g.LaunchSeconds(b.Tasks, b.Cost)
	}
	g.queue.RequestFixed(d, done)
}

// account records the launch's observability counters (no-ops when metrics
// are not attached).
func (g *GPU) account(b core.Batch) {
	if g.launches == nil {
		return
	}
	g.launches.Inc()
	g.workItems.Add(uint64(b.Tasks))
	width := g.params.wavefront()
	g.wavefronts.Add(uint64((b.Tasks + width - 1) / width))
	g.occupancy.Observe(float64(b.Tasks) / float64(g.params.SatThreads))
	words := uint64(b.Cost.MemWords * float64(b.Tasks))
	if b.Cost.Coalesced {
		g.coalesced.Add(words)
	} else {
		g.uncoalesced.Add(words)
	}
}
