// Package metrics is a dependency-free registry of counters, gauges, floats
// and bucketed histograms for the serving and execution layers. It exists
// because the paper's whole argument is about knowing where time goes on an
// HPU — per-level unit choice (§5.1), CPU/GPU overlap and idle time (§5.2),
// transfer cost λ+δ·w — and a production deployment needs those observables
// continuously, not only in a post-run Report.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrument type no-ops on a nil
//     receiver, and a nil *Registry hands out nil instruments, so
//     instrumented code performs a single predictable nil check and no
//     allocation when metrics are off.
//  2. Atomic hot path. Observing a value is one or two atomic operations
//     (lock-free CAS loop for float accumulation); the registry mutex is
//     taken only at instrument creation, never per observation.
//  3. Exposition without dependencies. Snapshot returns plain maps, and
//     WriteJSON emits them with encoding/json.
//
// Instruments are identified by flat snake_case names (the convention used
// across this repo is documented in DESIGN.md §9). Creating the same name
// twice returns the same instrument.
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. A nil Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (queue depth, busy workers).
// A nil Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Max raises the gauge to n if n exceeds its current level (a high-water
// mark).
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Float is a lock-free float64 accumulator (busy seconds, transferred
// megabytes). A nil Float no-ops.
type Float struct {
	bits atomic.Uint64
}

// Add accumulates delta into the float.
func (f *Float) Add(delta float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total (0 for a nil Float).
func (f *Float) Value() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// Histogram counts float64 observations into fixed buckets. Bucket i counts
// observations v ≤ Bounds[i]; one implicit overflow bucket counts the rest.
// Count and Sum accumulate all observations, so Sum doubles as a total-time
// accumulator for latency histograms. A nil Histogram no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = overflow
	count  atomic.Uint64
	sum    Float
}

// DurationBuckets are the default upper bounds (seconds) for latency
// histograms: 10µs to 10s, one decade apart. The range covers both virtual
// time on the simulator and wall clock on the native backend.
var DurationBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for a nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for a nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// HistogramSnapshot is the exported state of a histogram. Counts[i] pairs
// with Bounds[i]; the final extra entry of Counts is the overflow bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry holds named instruments. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is the disabled state: its methods
// return nil instruments whose operations all no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	floats     map[string]*Float
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		floats:     map[string]*Float{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Float returns the named float accumulator, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Float(name string) *Float {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.floats[name]
	if !ok {
		f = &Float{}
		r.floats[name] = f
	}
	return f
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (must be sorted ascending) on first use; later calls ignore
// bounds and return the existing instrument. Empty bounds default to
// DurationBuckets. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Floats     map[string]float64           `json:"floats"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current state of every instrument. On a nil registry
// it returns an empty (but non-nil-mapped) snapshot, so exposition code
// never branches.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Floats:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, f := range r.floats {
		s.Floats[name] = f.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON emits the registry snapshot as indented JSON (map keys sort, so
// output is deterministic for a quiescent registry). Safe on a nil registry,
// which emits an empty snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
