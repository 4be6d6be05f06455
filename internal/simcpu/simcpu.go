// Package simcpu models a multi-core CPU under the discrete-event engine of
// internal/vtime. It implements core.LevelExecutor.
//
// The model has p identical cores. A task's service time follows the paper's
// normalized cost convention: a task of cost c (scalar ops plus weighted
// memory words) takes c/R seconds on one core, where R is the core's
// operation rate. When a batch's working set exceeds the shared last-level
// cache, the cores stream from memory and the per-core rate is capped by the
// aggregate memory bandwidth divided by the number of concurrently active
// cores — this contention is what produces the paper's observed speedup
// roll-off beyond n = 2^20 on both test platforms (§6.4).
package simcpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vtime"

	"repro/internal/dcerr"
)

// Params describes a simulated CPU.
type Params struct {
	// Name identifies the processor in reports (e.g. "Intel Core 2 Extreme
	// Q6850").
	Name string
	// Cores is p, the number of cores available for processing tasks.
	Cores int
	// ClockGHz is reported in the platform spec table; it does not enter
	// the cost model directly (RateOpsPerSec does).
	ClockGHz float64
	// RateOpsPerSec is the per-core operation rate R for cache-resident
	// work, in normalized ops per second. This is the γ_c = 1 anchor of
	// the paper's model.
	RateOpsPerSec float64
	// LLCBytes is the shared last-level cache capacity.
	LLCBytes int64
	// MemBWOpsPerSec is the aggregate operation rate sustainable when the
	// working set does not fit the LLC; k active streaming cores each get
	// min(R, MemBW/k).
	MemBWOpsPerSec float64
	// MemWeight converts one 4-byte word of memory traffic into op
	// equivalents (shared convention with the GPU model so the γ estimate
	// is rate-only).
	MemWeight float64
	// DispatchOverheadSec is the fixed cost of handing a chunk of tasks to
	// a core (thread wake-up). The paper found scheduling overhead
	// negligible; keep this small but nonzero.
	DispatchOverheadSec float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("simcpu: Cores must be positive, got %d: %w", p.Cores, dcerr.ErrBadParam)
	}
	if p.RateOpsPerSec <= 0 {
		return fmt.Errorf("simcpu: RateOpsPerSec must be positive, got %g: %w", p.RateOpsPerSec, dcerr.ErrBadParam)
	}
	if p.MemBWOpsPerSec <= 0 {
		return fmt.Errorf("simcpu: MemBWOpsPerSec must be positive, got %g: %w", p.MemBWOpsPerSec, dcerr.ErrBadParam)
	}
	if p.LLCBytes <= 0 {
		return fmt.Errorf("simcpu: LLCBytes must be positive, got %d: %w", p.LLCBytes, dcerr.ErrBadParam)
	}
	if p.MemWeight < 0 {
		return fmt.Errorf("simcpu: MemWeight must be nonnegative, got %g: %w", p.MemWeight, dcerr.ErrBadParam)
	}
	return nil
}

// CPU is a simulated multi-core processor.
type CPU struct {
	params Params
	cores  *vtime.Resource
}

var _ core.LevelExecutor = (*CPU)(nil)

// New creates a CPU bound to the given engine.
func New(eng *vtime.Engine, p Params) (*CPU, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &CPU{params: p, cores: vtime.NewResource(eng, p.Cores)}, nil
}

// Params returns the CPU's parameters.
func (c *CPU) Params() Params { return c.params }

// Parallelism reports p.
func (c *CPU) Parallelism() int { return c.params.Cores }

// BusySeconds reports accumulated core-seconds of service, for utilization
// accounting.
func (c *CPU) BusySeconds() float64 { return c.cores.BusySeconds() }

// taskCost is the normalized op cost of one task.
func taskCost(cost core.Cost, memWeight float64) float64 {
	return cost.Ops + cost.MemWords*memWeight
}

// rate returns the effective per-core op rate given the batch working set
// and the number of concurrently active cores.
func (c *CPU) rate(workingSet int64, active int) float64 {
	r := c.params.RateOpsPerSec
	if workingSet > c.params.LLCBytes {
		if shared := c.params.MemBWOpsPerSec / float64(active); shared < r {
			r = shared
		}
	}
	return r
}

// Submit implements core.LevelExecutor. The batch's functional work runs
// eagerly on host memory (order within the batch is unspecified, tasks are
// independent by contract); its cost is then split into at most p chunks
// that occupy cores under FIFO contention with any concurrently submitted
// batches.
func (c *CPU) Submit(b core.Batch, done func()) {
	if b.Empty() {
		if done != nil {
			done()
		}
		return
	}
	b.Each(0, b.Tasks)
	chunks := c.params.Cores
	if b.Tasks < chunks {
		chunks = b.Tasks
	}
	join := done
	if join == nil {
		join = func() {}
	}
	finished := core.Join(chunks, join)
	perTask := taskCost(b.Cost, c.params.MemWeight)
	memPerTask := b.Cost.MemWords * c.params.MemWeight
	base, rem := b.Tasks/chunks, b.Tasks%chunks
	lo := 0
	for i := 0; i < chunks; i++ {
		n := base
		if i < rem {
			n++
		}
		var chunkOps float64
		if b.CostOps != nil {
			// Heterogeneous batch: sum the chunk's exact task costs.
			for t := lo; t < lo+n; t++ {
				chunkOps += b.CostOps(t) + memPerTask
			}
		} else {
			chunkOps = float64(n) * perTask
		}
		lo += n
		ws := b.Cost.WorkingSet
		c.cores.Request(func(active int) float64 {
			return c.params.DispatchOverheadSec + chunkOps/c.rate(ws, active)
		}, finished)
	}
}
