package hybriddc

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Observability surface: a dependency-free metrics registry and a span
// recorder, attachable to any executor run or Server with functional
// options. Both are no-ops when absent — a run without WithMetrics or
// WithSpanRecorder pays nothing.

// Metrics is a registry of counters, gauges and histograms. Instruments are
// created on first use and are safe for concurrent use; Snapshot and
// WriteJSON expose the current values. A nil *Metrics disables collection at
// zero cost.
type Metrics = metrics.Registry

// MetricsSnapshot is a point-in-time copy of every instrument in a registry.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// WithMetrics directs a run's execution metrics into the registry: one batch
// latency histogram per unit, CPU/GPU busy and idle time, and transfer
// bytes/counts split by direction. Metric names and semantics are listed in
// DESIGN.md §9.
func WithMetrics(reg *Metrics) Option { return core.WithMetrics(reg) }

// WithSpanRecorder records every batch and transfer of the run as spans in
// rec, which can then be summarized (Utilization), rendered as an ASCII
// Gantt chart, or exported as Chrome trace-event JSON (WriteChromeTrace).
// Unlike WithTrace, which prints a one-shot summary, the recorder is
// inspectable programmatically and can be shared across runs.
func WithSpanRecorder(rec *TraceRecorder) Option { return trace.Record(rec) }

// Tracing types, re-exported from the recorder's package.
type (
	// Span is one recorded interval: a batch on a unit, or a link transfer,
	// stamped with its job ID and recursion level.
	Span = trace.Span
	// TraceUnit identifies a resource lane in the timeline.
	TraceUnit = trace.Unit
)

// The units spans are recorded on.
const (
	// TraceUnitCPU is the CPU lane.
	TraceUnitCPU = trace.UnitCPU
	// TraceUnitGPU is the GPU lane.
	TraceUnitGPU = trace.UnitGPU
	// TraceUnitLink is the host↔device link lane.
	TraceUnitLink = trace.UnitLink
)

// NewTraceRecorderLimit returns a recorder retaining at most limit spans in
// a ring buffer (the newest span evicts the oldest; Dropped reports how
// many were evicted). Use it for continuously-traced servers, where an
// unbounded recorder would grow without limit.
func NewTraceRecorderLimit(limit int) *TraceRecorder { return trace.NewRecorderLimit(limit) }
