package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	hybriddc "repro"
	"repro/internal/workload"
)

// The native backend and the server in front of it are fixed for every
// wall-time workload, sized for the 2 cores the benchmark machine has: a
// later change is compared on the same configuration, not on one it tuned.
const (
	nativeCPUWorkers  = 2
	nativeDeviceLanes = 2
	serverQueueDepth  = 256
)

// config is what a workload needs to know about the invocation.
type config struct {
	seed  int64
	quick bool    // shrunken sizes for the unit test
	tr    *tracer // nil: spans and registries off (the end-to-end runs)
}

// outcome is one measured run of one workload.
type outcome struct {
	attempted int // jobs the run tried, overload probe excluded
	failed    int // of those: refused, errored, timed out or wrong
	wrong     int // results that differed from the plain-Go reference (anywhere)
	metrics   map[string]float64
	notes     []string // sent/succeeded/failed per phase, for the human table
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// wholeRun records what the whole run read, host disturbance included: the
// mean rate, the median latency, the 95th percentile, and in the notes the
// highest percentile with at least ten samples beyond it. latMS is ascending.
func (o *outcome) wholeRun(jobs int, wallS float64, latMS []float64) {
	o.set("whole_run.jobs_per_s", float64(jobs)/wallS)
	o.set("whole_run.latency_p50_ms", quantile(latMS, 0.5))
	o.set("latency_p95_ms", quantile(latMS, 0.95))
	tq := tailQuantile(len(latMS))
	o.notef("whole run: %.1f jobs/s; latency p50 %.3f ms, p%g %.3f ms (n=%d)",
		float64(jobs)/wallS, quantile(latMS, 0.5), 100*tq, quantile(latMS, tq), len(latMS))
}

// bench is one workload: setup builds inputs, references and the stack and
// warms it (all charged to setup_s), run measures for about the given number
// of seconds, close tears the stack down.
type bench interface {
	setup() error
	run(seconds float64) (outcome, error)
	close() error
}

var workloads = map[string]func(config) bench{
	"remote-small-json":   func(c config) bench { return newRemote(c, false) },
	"remote-large-binary": func(c config) bench { return newRemote(c, true) },
	"serve-open":          func(c config) bench { return newServeOpen(c) },
	"native-direct":       func(c config) bench { return newDirect(c) },
	"sim-sweep":           func(c config) bench { return newSimSweep(c) },
}

// ---- statistics ----

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tailQuantile is the highest quantile of the ladder that still has at
// least ten of n samples beyond it; below that a percentile is one or two
// outliers, not a property of the system. With fewer than 40 samples nothing
// beyond the median qualifies.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if n-1-rank(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// The benchmark machine's two virtual cores alternate, every few hundred
// milliseconds, between a fast state and one about 1.6× slower (a two-thread
// streaming loop takes 15 or 25 ms per pass; one thread alone varies by ±5 %),
// and the share of time spent in each drifts over minutes. A whole-run median
// therefore flips between two modes from run to run (spreads of 10–20 %
// measured). The gated speed metrics are instead taken from the best tenth
// of a run: what the system does when the host leaves it alone. That
// estimate repeats to a few percent. Whole-run medians and tails are printed
// beside it and kept in the per-layer list, because a change that adds
// occasional stalls moves those and not the best tenth.
const steadyShare = 0.1

// completion is one verified job of a timed run.
type completion struct {
	endS  float64 // when it finished, seconds from the start of the run
	latMS float64
	// class groups jobs that take about as long (same algorithm and size).
	// The median of a mix of classes falls between them and moves with the
	// mix; latency is therefore taken per class and combined by geomean.
	class int
}

// latencies returns the completions' latencies, ascending.
func latencies(done []completion) []float64 {
	lat := make([]float64, len(done))
	for i, c := range done {
		lat[i] = c.latMS
	}
	sort.Float64s(lat)
	return lat
}

// steadyGroups is how many consecutive groups steady cuts a run into: about
// 150 ms each in a 10 s run, the scale on which the host's state changes.
const steadyGroups = 64

// steadyMinGroup is the fewest jobs a group holds: below it a group's rate
// and median are too coarse, so slow workloads get fewer, not thinner, groups.
const steadyMinGroup = 8

// steady returns the throughput and the median latency of the best tenth of
// a run. It cuts the completions, in finishing order, into consecutive groups
// of equal count and returns the rate (jobs over the time between a group's
// boundaries) a tenth of the groups reach or exceed; and, doing the same
// within each class, the geomean over classes of the group median a tenth of
// the class's groups stay at or below. A series too short to fill ten groups
// reads as a whole.
func steady(done []completion) (jobsPerS, p50MS float64) {
	sort.Slice(done, func(i, j int) bool { return done[i].endS < done[j].endS })
	jobsPerS = float64(len(done)) / done[len(done)-1].endS
	if size, ok := steadyGroupSize(len(done)); ok {
		var rates []float64
		prevEnd := 0.0
		for g := size; g <= len(done); g += size {
			end := done[g-1].endS
			rates = append(rates, float64(size)/(end-prevEnd))
			prevEnd = end
		}
		jobsPerS = quantile(sortedCopy(rates), 1-steadyShare)
	}

	byClass := map[int][]float64{}
	for _, c := range done {
		byClass[c.class] = append(byClass[c.class], c.latMS)
	}
	var p50s []float64
	for _, lat := range byClass {
		p50 := median(lat)
		if size, ok := steadyGroupSize(len(lat)); ok {
			var medians []float64
			for g := size; g <= len(lat); g += size {
				medians = append(medians, median(lat[g-size:g]))
			}
			p50 = steadyOf(medians)
		}
		p50s = append(p50s, p50)
	}
	return jobsPerS, geomean(p50s)
}

// steadyGroupSize is the size of the groups a series of n is cut into, and
// whether it fills ten of them.
func steadyGroupSize(n int) (int, bool) {
	size := max(n/steadyGroups, steadyMinGroup)
	return size, n/size >= 10
}

// steadyOf is steady for a series of repeated timings of one call: the value
// a tenth of the repetitions stay at or below (the fastest, for fewer than
// ten).
func steadyOf(times []float64) float64 { return quantile(sortedCopy(times), steadyShare) }

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// ---- allocation and heap accounting ----

type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

// perJob stores the process-wide allocation deltas since the mark, divided
// by the jobs done in between. The harness's own allocations are inside the
// number; they are the same on every commit.
func (m memMark) perJob(o *outcome, jobs int) {
	now := markMem()
	o.set("allocs_per_job", float64(now.mallocs-m.mallocs)/float64(jobs))
	o.set("alloc_kb_per_job", float64(now.bytes-m.bytes)/1024/float64(jobs))
}

// heapWatch samples live heap bytes every 50 ms (runtime/metrics: no
// stop-the-world) until stopped and reports the peak in MiB.
func heapWatch() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}

// ---- bench-side spans ----

// span is one interval around a call into a layer. Parent is the index of
// the span that caused it (-1 for a job's root span); spans of one job share
// Job.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Job     int64  `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay a nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, job int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// us returns the ascending durations, in microseconds, of the finished spans
// with the given name.
func (t *tracer) us(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			d = append(d, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	sort.Float64s(d)
	return d
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, t.spans)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ---- jobs and their plain-Go references ----

// The three algorithms the job API serves, under the names the metrics use.
var servedKinds = []string{"mergesort", "scan", "dcsum"}

// refJob is one input with the answer plain Go gives for it: slices.Sort, a
// running int64 sum, a total. plainNS is how long plain Go took.
type refJob struct {
	kind    string
	data    []int32
	sorted  []int32
	scan    []int64
	sum     int64
	plainNS float64
}

func newRefJob(kind string, n int, seed int64) *refJob {
	j := &refJob{kind: kind, data: workload.Uniform(n, seed)}
	t0 := time.Now()
	switch kind {
	case "mergesort":
		j.sorted = slices.Clone(j.data)
		slices.Sort(j.sorted)
	case "scan":
		j.scan = make([]int64, n)
		var acc int64
		for i, v := range j.data {
			acc += int64(v)
			j.scan[i] = acc
		}
	case "dcsum":
		for _, v := range j.data {
			j.sum += int64(v)
		}
	default:
		panic("bench: unknown job kind " + kind)
	}
	j.plainNS = float64(time.Since(t0).Nanoseconds())
	return j
}

// class identifies jobs of the same algorithm and size.
func (j *refJob) class() int {
	return slices.Index(servedKinds, j.kind)<<8 | bits.Len(uint(len(j.data)))
}

// alg builds a fresh, unexecuted instance over the job's input.
func (j *refJob) alg() (hybriddc.GPUAlg, error) {
	switch j.kind {
	case "mergesort":
		return hybriddc.NewMergesort(j.data)
	case "scan":
		return hybriddc.NewScan(j.data)
	}
	return hybriddc.NewSum(j.data)
}

// checkAlg compares an executed instance's output with the reference, bit
// for bit.
func (j *refJob) checkAlg(a hybriddc.Alg) bool {
	switch r := a.(type) {
	case interface{ Result() []int32 }:
		return slices.Equal(r.Result(), j.sorted)
	case interface{ Result() []int64 }:
		return slices.Equal(r.Result(), j.scan)
	case interface{ Result() int64 }:
		return r.Result() == j.sum
	}
	return false
}

// checkWire compares a remote result with the reference, bit for bit.
func (j *refJob) checkWire(res hybriddc.APIJobResult) bool {
	switch j.kind {
	case "mergesort":
		return slices.Equal(res.Sorted, j.sorted)
	case "scan":
		return slices.Equal(res.Scan, j.scan)
	}
	return res.Sum != nil && *res.Sum == j.sum
}

// release returns an instance's pooled buffers; its result must not be read
// afterwards.
func release(a hybriddc.Alg) {
	if r, ok := a.(interface{ Release() }); ok {
		r.Release()
	}
}

// ---- the native stack ----

// nativeServer starts the fixed native backend and a server over it. reg is
// nil for untraced runs.
func nativeServer(reg *hybriddc.Metrics) (*hybriddc.Native, *hybriddc.Server, error) {
	be, err := hybriddc.NewNative(hybriddc.NativeConfig{
		CPUWorkers: nativeCPUWorkers, DeviceLanes: nativeDeviceLanes, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	opts := []hybriddc.ServerOption{hybriddc.WithQueueDepth(serverQueueDepth)}
	if reg != nil {
		opts = append(opts, hybriddc.WithServerMetrics(reg))
	}
	srv, err := hybriddc.NewServer(be, opts...)
	if err != nil {
		be.Close()
		return nil, nil, err
	}
	return be, srv, nil
}

// autoChoices are the strategies Auto picks among, under their report names.
var autoChoices = []string{"bf-cpu", "gpu-only", "basic-hybrid", "advanced-hybrid"}

// choiceMetrics stores how often Auto chose each strategy.
func choiceMetrics(o *outcome, chosen map[string]int) {
	for _, name := range autoChoices {
		o.set("autotune.choice."+name, float64(chosen[name]))
	}
}

// registryMetrics copies the counters the layers already keep into the
// outcome, under the benchmark's names. A nil registry snapshots empty.
func registryMetrics(o *outcome, reg *hybriddc.Metrics) {
	c := reg.Snapshot().Counters
	o.set("core.transfer_to_gpu_bytes", float64(c["core_transfer_to_gpu_bytes"]))
	o.set("core.transfer_to_cpu_bytes", float64(c["core_transfer_to_cpu_bytes"]))
	o.set("core.transfers", float64(c["core_transfer_to_gpu_total"]+c["core_transfer_to_cpu_total"]))
	o.set("native.steals", float64(c["native_cpu_steals_total"]+c["native_gpu_steals_total"]))
	o.set("native.chunks", float64(c["native_cpu_chunks_total"]+c["native_gpu_chunks_total"]))
	o.set("autotune.refits", float64(c["autotune_refits_total"]))
}
