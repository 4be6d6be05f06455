// Package trace records execution timelines of hybrid runs: every batch
// submitted to a processing unit and every link transfer becomes a span.
// Record turns the intervals core's interpreter measures into spans, so both
// the simulated and the native backends can be traced. Spans carry a job ID
// and recursion level, so a serving deployment can trace many concurrent
// jobs into one recorder and still attribute every interval. Spans can be
// summarized (per-unit utilization), rendered as an ASCII Gantt chart, or
// exported as Chrome trace-event JSON for chrome://tracing — grouped per job
// in the viewer.
//
// A Recorder built with NewRecorder grows without bound, which suits one-off
// runs; a busy server should use NewRecorderLimit, whose bounded ring buffer
// keeps only the most recent spans (Dropped reports how many were evicted),
// so tracing can stay on continuously at a fixed memory cost.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// Unit identifies a resource lane in the timeline.
type Unit string

// The units Record writes spans on.
const (
	UnitCPU  Unit = "cpu"
	UnitGPU  Unit = "gpu"
	UnitLink Unit = "link"
)

// Span is one recorded interval.
type Span struct {
	Unit  Unit
	Label string
	// Job attributes the span to a serving-layer job; 0 means a direct
	// (unserved) run. Scoped recorders (Recorder.Scope) stamp it.
	Job uint64
	// Level is the recursion level the span's batch belongs to (0 = root);
	// meaningful only for unit spans whose batch was stamped by an executor.
	Level int
	// Start and End are backend timestamps in seconds.
	Start, End float64
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.End - s.Start }

// Adder is anything spans can be recorded into: a *Recorder, or a scoped
// view of one.
type Adder interface {
	Add(Span)
}

// Recorder collects spans. It is safe for concurrent use (the native
// backend completes batches on multiple goroutines). With a capacity limit
// it is a ring buffer: the newest span evicts the oldest.
type Recorder struct {
	mu      sync.Mutex
	spans   []Span
	limit   int // 0 = unbounded
	next    int // ring write index, used once len(spans) == limit
	dropped uint64
}

// NewRecorder returns an empty, unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRecorderLimit returns a recorder that retains at most limit spans,
// evicting the oldest when full. limit <= 0 means unbounded.
func NewRecorderLimit(limit int) *Recorder {
	if limit < 0 {
		limit = 0
	}
	return &Recorder{limit: limit}
}

// Add appends a span, evicting the oldest if the recorder is at capacity.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 && len(r.spans) == r.limit {
		r.spans[r.next] = s
		r.next = (r.next + 1) % r.limit
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Dropped reports how many spans the ring buffer has evicted.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len reports how many spans are currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Scope returns a view of the recorder that stamps every added span with the
// given job ID. Concurrent jobs can each hold their own scope over one
// shared recorder.
func (r *Recorder) Scope(job uint64) *Scope { return &Scope{r: r, job: job} }

// Scope is a per-job view of a Recorder.
type Scope struct {
	r   *Recorder
	job uint64
}

// Add stamps the span with the scope's job ID and records it.
func (s *Scope) Add(sp Span) {
	sp.Job = s.job
	s.r.Add(sp)
}

// Spans returns a copy of the recorded spans sorted by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Utilization reports, per unit, the fraction of the overall makespan the
// unit spent busy (span overlap within a unit is not double-counted).
func (r *Recorder) Utilization() map[Unit]float64 {
	spans := r.Spans()
	if len(spans) == 0 {
		return nil
	}
	t0, t1 := spans[0].Start, spans[0].End
	perUnit := map[Unit][]Span{}
	for _, s := range spans {
		if s.Start < t0 {
			t0 = s.Start
		}
		if s.End > t1 {
			t1 = s.End
		}
		perUnit[s.Unit] = append(perUnit[s.Unit], s)
	}
	total := t1 - t0
	if total <= 0 {
		return nil
	}
	out := map[Unit]float64{}
	for unit, ss := range perUnit {
		// Merge overlapping intervals before summing.
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		busy, curS, curE := 0.0, ss[0].Start, ss[0].End
		for _, s := range ss[1:] {
			if s.Start > curE {
				busy += curE - curS
				curS, curE = s.Start, s.End
			} else if s.End > curE {
				curE = s.End
			}
		}
		busy += curE - curS
		out[unit] = busy / total
	}
	return out
}

// Gantt renders the timeline as an ASCII chart with one row per unit.
func (r *Recorder) Gantt(width int) string {
	spans := r.Spans()
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if width < 20 {
		width = 20
	}
	t0, t1 := spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.Start < t0 {
			t0 = s.Start
		}
		if s.End > t1 {
			t1 = s.End
		}
	}
	scale := float64(width) / (t1 - t0)
	rows := map[Unit][]byte{}
	order := []Unit{UnitCPU, UnitGPU, UnitLink}
	for _, u := range order {
		rows[u] = []byte(strings.Repeat(".", width))
	}
	for _, s := range spans {
		row, ok := rows[s.Unit]
		if !ok {
			row = []byte(strings.Repeat(".", width))
			rows[s.Unit] = row
			order = append(order, s.Unit)
		}
		from := int((s.Start - t0) * scale)
		to := int((s.End - t0) * scale)
		if to >= width {
			to = width - 1
		}
		for i := from; i <= to; i++ {
			row[i] = '#'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %.6fs .. %.6fs\n", t0, t1)
	for _, u := range order {
		fmt.Fprintf(&b, "%5s |%s|\n", u, rows[u])
	}
	return b.String()
}

// chromeEvent is one Chrome trace-event (phase "X": complete event).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// WriteChromeTrace emits the spans as a Chrome trace-event JSON array,
// loadable in chrome://tracing or Perfetto. Each job becomes one process
// group (pid = job ID + 1; direct runs are pid 1), with one thread lane per
// unit, so a multi-job server trace stays readable.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	tids := map[Unit]int{UnitCPU: 1, UnitGPU: 2, UnitLink: 3}
	var events []chromeEvent
	for _, s := range r.Spans() {
		tid, ok := tids[s.Unit]
		if !ok {
			tid = len(tids) + 1
			tids[s.Unit] = tid
		}
		name := s.Label
		if s.Level > 0 {
			name = fmt.Sprintf("L%d %s", s.Level, s.Label)
		}
		events = append(events, chromeEvent{
			Name: name, Ph: "X",
			Ts: s.Start * 1e6, Dur: s.Duration() * 1e6,
			PID: int(s.Job) + 1, TID: tid,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Record is the option that records a run's batches and transfers into rec —
// a *Recorder, or a per-job Scope of one: each interval the run measures
// (core.WithIntervals) becomes a span on its unit, labeled "<tasks> tasks x
// <ops> ops" with the batch's recursion level, or on the link, labeled
// "to-gpu <bytes>B" or "to-cpu <bytes>B".
func Record(rec Adder) core.Option {
	return core.WithIntervals(func(iv core.Interval) {
		s := Span{Unit: units[iv.Unit], Level: iv.Level, Start: iv.Start, End: iv.End}
		switch {
		case iv.Unit != core.UnitLink:
			s.Label = fmt.Sprintf("%d tasks x %.0f ops", iv.Tasks, iv.Ops)
		case iv.ToGPU:
			s.Label = fmt.Sprintf("to-gpu %dB", iv.Bytes)
		default:
			s.Label = fmt.Sprintf("to-cpu %dB", iv.Bytes)
		}
		rec.Add(s)
	})
}

// units names core's units as trace lanes.
var units = [...]Unit{core.UnitCPU: UnitCPU, core.UnitGPU: UnitGPU, core.UnitLink: UnitLink}
