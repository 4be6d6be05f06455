package serve_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestServerMetrics drives a metered server and checks the serving-layer
// counters, gauges, and per-priority latency histograms, plus that the
// registry was forwarded to the executors.
func TestServerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be,
		serve.WithQueueDepth(1), serve.WithMaxInFlight(1), serve.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	blocker, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(context.Background(),
		serve.Job{Alg: &gateAlg{Label: "queued"}}, core.WithPriority(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "overflow"}}); err == nil {
		t.Fatal("overflow submission accepted")
	}

	s := reg.Snapshot()
	if got := s.Counters[serve.MetricSubmitted]; got != 2 {
		t.Errorf("%s = %d, want 2", serve.MetricSubmitted, got)
	}
	if got := s.Counters[serve.MetricRejected]; got != 1 {
		t.Errorf("%s = %d, want 1", serve.MetricRejected, got)
	}
	if got := s.Gauges[serve.MetricQueueDepth]; got != 1 {
		t.Errorf("%s = %d with one job queued, want 1", serve.MetricQueueDepth, got)
	}
	if got := s.Gauges[serve.MetricInFlight]; got != 1 {
		t.Errorf("%s = %d with blocker running, want 1", serve.MetricInFlight, got)
	}

	close(gate)
	for _, h := range []*serve.Handle{blocker, queued} {
		if _, err := h.Report(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	s = reg.Snapshot()
	if got := s.Counters[serve.MetricCompleted]; got != 2 {
		t.Errorf("%s = %d, want 2", serve.MetricCompleted, got)
	}
	if got := s.Gauges[serve.MetricQueueDepthMax]; got != 1 {
		t.Errorf("%s = %d, want 1", serve.MetricQueueDepthMax, got)
	}
	if got := s.Gauges[serve.MetricInFlight]; got != 0 {
		t.Errorf("%s = %d after drain, want 0", serve.MetricInFlight, got)
	}
	// One job ran at the default weight, one at weight 3.
	for _, p := range []int{1, 3} {
		name := fmt.Sprintf(serve.MetricWaitSecondsFmt, p)
		if got := s.Histograms[name].Count; got != 1 {
			t.Errorf("%s count = %d, want 1", name, got)
		}
		name = fmt.Sprintf(serve.MetricTurnaroundSecondsFmt, p)
		if got := s.Histograms[name].Count; got != 1 {
			t.Errorf("%s count = %d, want 1", name, got)
		}
	}
	// The registry reached the executors: the jobs' runs were metered.
	if got := s.Counters[core.MetricRuns]; got != 2 {
		t.Errorf("%s = %d, want 2 (registry not forwarded to executors?)", core.MetricRuns, got)
	}
}

// TestServerPerJobSpans checks that a server recorder captures queue/job
// spans and executor batch spans, each stamped with its job's ID.
func TestServerPerJobSpans(t *testing.T) {
	rec := trace.NewRecorderLimit(256)
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}

	var handles []*serve.Handle
	for i := 0; i < 3; i++ {
		h, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "traced"}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	ids := map[uint64]bool{}
	for _, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatal(err)
		}
		ids[h.ID] = true
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	jobSpans, unitSpans := 0, 0
	for _, sp := range rec.Spans() {
		if !ids[sp.Job] {
			t.Errorf("span %q carries unknown job ID %d", sp.Label, sp.Job)
		}
		switch sp.Unit {
		case "job":
			jobSpans++
		case trace.UnitCPU, trace.UnitGPU:
			unitSpans++
		}
	}
	if jobSpans != 3 {
		t.Errorf("job spans = %d, want 3", jobSpans)
	}
	if unitSpans == 0 {
		t.Error("no executor batch spans recorded through the per-job scope")
	}
}

// benchSubmit measures the Submit path alone: the only in-flight slot is
// pinned by a gated blocker and the queue is sized to hold every submission,
// so no benchmark iteration ever starts a job.
func benchSubmit(b *testing.B, opts ...serve.Option) {
	be, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	opts = append([]serve.Option{
		serve.WithQueueDepth(b.N + 2), serve.WithMaxInFlight(1)}, opts...)
	srv, err := serve.New(be, opts...)
	if err != nil {
		b.Fatal(err)
	}
	gate := make(chan struct{})
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}}); err != nil {
		b.Fatal(err)
	}
	job := serve.Job{Alg: &gateAlg{Label: "bench"}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Submit(ctx, job); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(gate)
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeSubmit is the no-observability baseline; compare with
// BenchmarkServeSubmitMetrics to see the cost of enabling metrics (the
// disabled path must add 0 allocs/op over this baseline by construction —
// disabled instruments are nil pointers whose methods return immediately).
func BenchmarkServeSubmit(b *testing.B) { benchSubmit(b) }

// BenchmarkServeSubmitMetrics is Submit with a live registry.
func BenchmarkServeSubmitMetrics(b *testing.B) {
	benchSubmit(b, serve.WithMetrics(metrics.NewRegistry()))
}

// TestSubmitAllocs pins what admitting a job allocates: its Handle, the
// Handle's done channel and its queue record, which holds the job's options
// and their one resolution. The options row is the serve-open harness's
// form, a fresh WithPriority per call, whose closure and captured weight are
// the other two. Measured 4 and 7 before the options were resolved into
// the record.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	be, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	const runs = 200
	srv, err := serve.New(be, serve.WithQueueDepth(4*runs), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer func() {
		close(gate)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}}); err != nil {
		t.Fatal(err)
	}
	job := serve.Job{Alg: &gateAlg{Label: "queued"}}
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		submit func() (*serve.Handle, error)
		want   float64
	}{
		{"no options", func() (*serve.Handle, error) { return srv.Submit(ctx, job) }, 3},
		{"priority", func() (*serve.Handle, error) { return srv.Submit(ctx, job, core.WithPriority(2)) }, 5},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := c.submit(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.want {
			t.Errorf("%s: Submit allocated %g times, want at most %g", c.name, allocs, c.want)
		}
	}
}
