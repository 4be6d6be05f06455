package core

import "repro/internal/metrics"

// Metric names recorded by the interpreter's tap. They are package-level so
// exposition layers and tests can reference them without typos; semantics
// are documented in DESIGN.md §9.
const (
	MetricRuns            = "core_runs_total"
	MetricRunSeconds      = "core_run_seconds"
	MetricCPUBatchSeconds = "core_cpu_batch_seconds"
	MetricGPUBatchSeconds = "core_gpu_batch_seconds"
	MetricCPUBusySeconds  = "core_cpu_busy_seconds"
	MetricGPUBusySeconds  = "core_gpu_busy_seconds"
	MetricCPUIdleSeconds  = "core_cpu_idle_seconds"
	MetricGPUIdleSeconds  = "core_gpu_idle_seconds"
	MetricToGPUTransfers  = "core_transfer_to_gpu_total"
	MetricToCPUTransfers  = "core_transfer_to_cpu_total"
	MetricToGPUBytes      = "core_transfer_to_gpu_bytes"
	MetricToCPUBytes      = "core_transfer_to_cpu_bytes"
)

// Unit is the resource an Interval occupied.
type Unit uint8

const (
	UnitCPU  Unit = iota // a batch on the CPU
	UnitGPU              // a batch on a device, any of a multi-device run's
	UnitLink             // a host↔device transfer
)

// Interval is one measured platform call of a run: a non-empty batch or a
// transfer, from just before the interpreter hands it to the platform to the
// top of its completion callback — queueing plus service — in the backend's
// clock (virtual seconds on the simulator, wall clock on native). A folded
// sequential level is the one batch actually submitted: one task of the
// whole level's ops.
type Interval struct {
	Unit Unit
	// Level, Tasks and Ops describe a batch: its recursion level
	// (Batch.Level), task count and per-task op count. A Solver's coarse
	// batch on an autonomous backend is not priced (CoarseBatch): its Ops
	// is 0.
	Level int
	Tasks int
	Ops   float64
	// Bytes and ToGPU describe a transfer: its size and direction.
	Bytes int64
	ToGPU bool
	// Start and End are backend timestamps in seconds.
	Start, End float64
}

// tap is where a run's intervals go: the metrics of WithMetrics and the
// hook of WithIntervals. A run with neither has no tap, and its interpreter
// reads no clock and writes nothing for one.
type tap struct {
	hook func(Interval)
	open []openInterval // per chain (chain.id): the batch or transfer in flight

	// The run's instruments, nil (no-op) without WithMetrics; batch and busy
	// are indexed by Unit (the GPU's nil on a CPU-only backend), the transfer
	// counters by direction (1 = to the GPU).
	batch           [2]*metrics.Histogram
	busy, idle      [2]*metrics.Float
	runBusy         [2]metrics.Float // this run's batch time per unit, for its idle remainder
	xfers, xferByte [2]*metrics.Counter
	runs            *metrics.Counter
	runSeconds      *metrics.Histogram
}

// openInterval is a chain's measured op in flight.
type openInterval struct {
	Interval
	live bool
}

// newTap is the tap of a run under cfg on be, nil when nothing listens.
func newTap(cfg *RunConfig, be Backend) *tap {
	if cfg.Metrics == nil && cfg.Intervals == nil {
		return nil
	}
	reg := cfg.Metrics
	t := &tap{
		hook:       cfg.Intervals,
		runs:       reg.Counter(MetricRuns),
		runSeconds: reg.Histogram(MetricRunSeconds),
		batch:      [2]*metrics.Histogram{reg.Histogram(MetricCPUBatchSeconds)},
		busy:       [2]*metrics.Float{reg.Float(MetricCPUBusySeconds)},
		idle:       [2]*metrics.Float{reg.Float(MetricCPUIdleSeconds), reg.Float(MetricGPUIdleSeconds)},
		xfers:      [2]*metrics.Counter{reg.Counter(MetricToCPUTransfers), reg.Counter(MetricToGPUTransfers)},
		xferByte:   [2]*metrics.Counter{reg.Counter(MetricToCPUBytes), reg.Counter(MetricToGPUBytes)},
	}
	if be.GPU() != nil {
		t.batch[UnitGPU] = reg.Histogram(MetricGPUBatchSeconds)
		t.busy[UnitGPU] = reg.Float(MetricGPUBusySeconds)
	}
	return t
}

// watch sizes the tap for a planned run's chains.
func (t *tap) watch(chains []chain) {
	t.open = make([]openInterval, len(chains))
	for i := range chains {
		chains[i].id = int32(i)
	}
}

// measureBatch opens the interval of the batch chain c is about to submit
// to unit u; an empty batch is not measured.
func (c *chain) measureBatch(u Unit, b *Batch) {
	if t := c.run.tap; t != nil && !b.Empty() {
		t.start(c, Interval{Unit: u, Level: b.Level, Tasks: b.Tasks, Ops: b.Cost.Ops})
	}
}

// measureTransfer opens the interval of the chain's upload or download.
func (c *chain) measureTransfer(toGPU bool) {
	if t := c.run.tap; t != nil {
		t.start(c, Interval{Unit: UnitLink, Bytes: c.bytes, ToGPU: toGPU})
	}
}

// start opens chain c's interval iv now.
func (t *tap) start(c *chain, iv Interval) {
	iv.Start = c.run.be.Now()
	t.open[c.id] = openInterval{iv, true}
}

// landed closes chain c's interval in flight, if one is open, and reports
// it: the top of the chain's completion callback.
func (t *tap) landed(c *chain) {
	o := &t.open[c.id]
	if !o.live {
		return
	}
	o.live = false
	iv := o.Interval
	iv.End = c.run.be.Now()
	d := iv.End - iv.Start
	if iv.Unit == UnitLink {
		dir := 0
		if iv.ToGPU {
			dir = 1
		}
		t.xfers[dir].Inc()
		t.xferByte[dir].Add(uint64(iv.Bytes))
	} else {
		t.batch[iv.Unit].Observe(d)
		t.busy[iv.Unit].Add(d)
		t.runBusy[iv.Unit].Add(d)
	}
	if t.hook != nil {
		t.hook(iv)
	}
}

// finish books a settled run: its makespan, and per unit the idle remainder
// makespan − Σ batch time. Batches overlapping on a unit (two chains of the
// advanced division sharing the CPU) can push the busy sum past the
// makespan, in which case the idle charge clamps at zero.
func (t *tap) finish(makespan float64) {
	t.runs.Inc()
	t.runSeconds.Observe(makespan)
	for u := range t.idle {
		if t.batch[u] == nil {
			continue
		}
		if d := makespan - t.runBusy[u].Value(); d > 0 {
			t.idle[u].Add(d)
		}
	}
}
