package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/hpu"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/workload"
)

// waitGoroutines polls until the goroutine count returns to the baseline
// (plus slack for runtime helpers), failing if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d at start, %d after close", base, n)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gateAlg holds the backend busy (and the admission queue full) at a known
// point; shared with the tests of the layers above serve.
type gateAlg = servetest.GateAlg

// TestServerStressMixedJobs is the acceptance gate: at least 64 concurrent
// mixed jobs (mergesort + scan + sum) across all five strategies on one
// shared native backend, with random priorities and random cancellations,
// a bounded queue whose overflow must surface as ErrQueueFull, exact
// accounting, and zero leaked goroutines after Close.
func TestServerStressMixedJobs(t *testing.T) {
	base := runtime.NumGoroutine()
	be, err := native.New(native.Config{CPUWorkers: 4, DeviceLanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(be, serve.WithQueueDepth(8), serve.WithMaxInFlight(4))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	const accept = 96 // well above the 64-job floor
	type submission struct {
		h        *serve.Handle
		canceled bool
		sorter   *mergesort.Sorter // non-nil when the job is a mergesort
	}
	var subs []submission
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	rejected := uint64(0)
	for len(subs) < accept {
		n := 1 << (8 + rng.Intn(5)) // 256..4096 elements
		data := workload.Uniform(n, rng.Int63())
		var alg core.Alg
		var sorter *mergesort.Sorter
		switch rng.Intn(3) {
		case 0:
			sorter, err = mergesort.New(data)
			alg = sorter
		case 1:
			alg, err = scan.New(data)
		default:
			alg, err = dcsum.New(data)
		}
		if err != nil {
			t.Fatal(err)
		}
		job := serve.Job{Alg: alg}
		levels := alg.Levels()
		switch rng.Intn(5) {
		case 0:
			job.Strategy = serve.Sequential
		case 1:
			job.Strategy = serve.BreadthFirstCPU
		case 2:
			job.Strategy = serve.BasicHybrid
			job.Crossover = levels / 2
		case 3:
			job.Strategy = serve.AdvancedHybrid
			job.Alpha = 0.5
			job.Y = levels / 2
		default:
			job.Strategy = serve.GPUOnly
		}

		ctx, cancel := context.WithCancel(context.Background())
		h, err := srv.Submit(ctx, job, core.WithPriority(1+rng.Intn(3)))
		if err != nil {
			cancel()
			if !errors.Is(err, dcerr.ErrQueueFull) {
				t.Fatalf("Submit error %v does not unwrap to ErrQueueFull", err)
			}
			rejected++
			time.Sleep(100 * time.Microsecond) // shed load, retry
			continue
		}
		cancels = append(cancels, cancel)
		willCancel := rng.Intn(4) == 0
		if willCancel {
			delay := time.Duration(rng.Intn(300)) * time.Microsecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		subs = append(subs, submission{h: h, canceled: willCancel, sorter: sorter})
	}

	completed, canceled := 0, 0
	for i, sb := range subs {
		rep, err := sb.h.Report()
		switch {
		case err == nil:
			completed++
			if rep.Partial {
				t.Errorf("job %d: clean run marked Partial", i)
			}
			if sb.sorter != nil {
				out := sb.sorter.Result()
				if !sort.SliceIsSorted(out, func(a, b int) bool { return out[a] < out[b] }) {
					t.Errorf("job %d: completed mergesort left unsorted data", i)
				}
			}
		case errors.Is(err, dcerr.ErrCanceled):
			canceled++
			if !sb.canceled {
				t.Errorf("job %d: reported canceled but its context was never canceled", i)
			}
			if !rep.Partial {
				t.Errorf("job %d: canceled run's Report not marked Partial", i)
			}
		default:
			t.Errorf("job %d failed: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Error("admission queue never filled: stress run exercised no backpressure")
	}

	st := srv.Stats()
	if st.Submitted != accept {
		t.Errorf("stats.Submitted = %d, want %d", st.Submitted, accept)
	}
	if st.Rejected != rejected {
		t.Errorf("stats.Rejected = %d, want %d", st.Rejected, rejected)
	}
	if st.Failed != 0 {
		t.Errorf("stats.Failed = %d, want 0", st.Failed)
	}
	if st.Completed+st.Canceled != accept {
		t.Errorf("stats: %d completed + %d canceled != %d accepted", st.Completed, st.Canceled, accept)
	}
	if int(st.Completed) != completed || int(st.Canceled) != canceled {
		t.Errorf("stats (%d completed, %d canceled) disagree with handles (%d, %d)",
			st.Completed, st.Canceled, completed, canceled)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestServerQueueFull holds the single in-flight slot busy with a gated job
// and asserts the QueueDepth+1-th submission is rejected with ErrQueueFull
// while earlier ones are queued.
func TestServerQueueFull(t *testing.T) {
	base := runtime.NumGoroutine()
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(be, serve.WithQueueDepth(1), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	blocker, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}})
	if err != nil {
		t.Fatal(err)
	}

	queued, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "queued"}})
	if err != nil {
		t.Fatalf("second submission should queue, got %v", err)
	}
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "overflow"}}); !errors.Is(err, dcerr.ErrQueueFull) {
		t.Fatalf("overflow submission error %v does not unwrap to ErrQueueFull", err)
	}
	if st := srv.Stats(); st.Rejected != 1 || st.QueueDepth != 1 || st.MaxQueueDepth != 1 {
		t.Errorf("stats after overflow = %+v", st)
	}

	close(gate)
	for _, h := range []*serve.Handle{blocker, queued} {
		if _, err := h.Report(); err != nil {
			t.Errorf("%d: %v", h.ID, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	be.Close()
	waitGoroutines(t, base)
}

// TestServerPriorityOrder fills the queue behind a gated blocker and asserts
// stride scheduling dispatches the heavier job first while keeping FIFO
// order among equal weights.
func TestServerPriorityOrder(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithQueueDepth(8), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	submit := func(name string, weight int) *serve.Handle {
		alg := &gateAlg{Label: name, Ran: func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}}
		h, err := srv.Submit(context.Background(), serve.Job{Alg: alg}, core.WithPriority(weight))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Queued while the blocker pins the only slot, so dispatch order is
	// decided purely by the scheduler.
	handles := []*serve.Handle{
		submit("low-a", 1),
		submit("low-b", 1),
		submit("high", 4),
	}

	close(gate)
	for _, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	want := []string{"high", "low-a", "low-b"}
	if len(got) != len(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCancelWhileQueued cancels a job that never left the queue: it
// must settle with ErrCanceled and a partial Report without touching the
// backend.
func TestServerCancelWhileQueued(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithQueueDepth(4), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}}); err != nil {
		t.Fatal(err)
	}

	ran := false
	ctx, cancel := context.WithCancel(context.Background())
	h, err := srv.Submit(ctx, serve.Job{Alg: &gateAlg{Label: "victim", Ran: func() { ran = true }}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)

	rep, err := h.Report()
	if !errors.Is(err, dcerr.ErrCanceled) {
		t.Fatalf("error %v does not unwrap to ErrCanceled", err)
	}
	if !rep.Partial {
		t.Error("canceled-while-queued Report not marked Partial")
	}
	if ran {
		t.Error("canceled-while-queued job still executed")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Canceled != 1 {
		t.Errorf("stats.Canceled = %d, want 1", st.Canceled)
	}
}

// TestServerClosedLifecycle covers the server's own lifecycle errors.
func TestServerClosedLifecycle(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "late"}}); !errors.Is(err, dcerr.ErrServerClosed) {
		t.Errorf("Submit after Close: error %v does not unwrap to ErrServerClosed", err)
	}
	if err := srv.Close(); !errors.Is(err, dcerr.ErrServerClosed) {
		t.Errorf("second Close: error %v does not unwrap to ErrServerClosed", err)
	}
}

// TestServerRejectsBadConfig covers construction-time validation.
func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := serve.New(nil); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("nil backend: error %v does not unwrap to ErrBadParam", err)
	}
	be, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	be.Close()
	if _, err := serve.New(be); !errors.Is(err, dcerr.ErrBackendClosed) {
		t.Errorf("closed backend: error %v does not unwrap to ErrBackendClosed", err)
	}
	be2, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	if _, err := serve.New(be2, serve.WithQueueDepth(-1)); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("negative QueueDepth: error %v does not unwrap to ErrBadParam", err)
	}
	srv, err := serve.New(be2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(context.Background(), serve.Job{}); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("nil Alg: error %v does not unwrap to ErrBadParam", err)
	}
	// A hybrid strategy on an algorithm without device kernels is caught at
	// execution time and settles the handle as failed.
	h, err := srv.Submit(context.Background(),
		serve.Job{Alg: &gateAlg{Label: "cpu-only"}, Strategy: serve.BasicHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Report(); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("hybrid on non-GPUAlg: error %v does not unwrap to ErrBadParam", err)
	}
}

// TestServerSimBackend drives the server over the single-goroutine
// virtual-time simulator: MaxInFlight is clamped internally, jobs serialize,
// and every result stays correct.
func TestServerSimBackend(t *testing.T) {
	be := hpu.MustSim(hpu.HPU1())
	srv, err := serve.New(be, serve.WithQueueDepth(16), serve.WithMaxInFlight(8))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	type jobOut struct {
		h      *serve.Handle
		sorter *mergesort.Sorter
	}
	var jobs []jobOut
	for i := 0; i < 8; i++ {
		data := workload.Uniform(1<<10, rng.Int63())
		sorter, err := mergesort.New(data)
		if err != nil {
			t.Fatal(err)
		}
		job := serve.Job{Alg: sorter}
		switch i % 4 {
		case 0:
			job.Strategy = serve.Sequential
		case 1:
			job.Strategy = serve.BreadthFirstCPU
		case 2:
			job.Strategy = serve.BasicHybrid
			job.Crossover = 3
		default:
			job.Strategy = serve.AdvancedHybrid
			job.Alpha = 0.4
			job.Y = 5
		}
		h, err := srv.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, jobOut{h, sorter})
	}
	for i, j := range jobs {
		rep, err := j.h.Report()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.Seconds <= 0 {
			t.Errorf("job %d: virtual makespan %g", i, rep.Seconds)
		}
		out := j.sorter.Result()
		if !sort.SliceIsSorted(out, func(a, b int) bool { return out[a] < out[b] }) {
			t.Errorf("job %d left unsorted data", i)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != 8 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 8 completed", st)
	}
}

// TestServerQueueWait asserts the handle exposes a plausible queue wait for a
// job held behind a blocker.
func TestServerQueueWait(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithQueueDepth(4), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	gate := make(chan struct{})
	if _, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}}); err != nil {
		t.Fatal(err)
	}
	h, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "waiter"}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if _, err := h.Report(); err != nil {
		t.Fatal(err)
	}
	if w := h.QueueWaitSeconds(); w < 0.015 {
		t.Errorf("queue wait %gs, want >= 15ms", w)
	}
}

// TestServerCloseDrainsMidFlight pins the Close contract for in-flight and
// queued work: Close blocks until every admitted job settles, handles stay
// open (Done unclosed, Err nil) while the drain is in progress, and once a
// job has finished Wait returns its outcome even through an already-expired
// wait context.
func TestServerCloseDrainsMidFlight(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithQueueDepth(4), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	var handles []*serve.Handle
	h0, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, h0)
	for i := 0; i < 2; i++ {
		h, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "queued", Gate: gate}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Close is now waiting on the drain: no handle may settle, and the
	// Close call itself must not return, while the gate holds.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with jobs still gated", err)
	default:
	}
	for i, h := range handles {
		select {
		case <-h.Done():
			t.Fatalf("job %d (handle %d) settled with its gate held", h.ID, i)
		default:
		}
		if err := h.Err(); err != nil {
			t.Errorf("job %d: Err() = %v while running, want nil", h.ID, err)
		}
	}

	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every admitted job drained to completion; a finished job's outcome is
	// readable through an expired wait context (done wins over ctx).
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for _, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("job %d not settled after Close returned", h.ID)
		}
		if _, err := h.Wait(expired); err != nil {
			t.Errorf("job %d: Wait(expired) after drain = %v, want the job's nil outcome", h.ID, err)
		}
	}
	if st := srv.Stats(); st.Completed != 3 || st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("stats = %+v, want 3 completed", st)
	}
}

// TestServerWaitAbandonMidFlight pins Wait's two-phase contract on a live
// job: an expiring wait context abandons only the wait — surfacing the
// context's cause while Done stays open and the job keeps running — and a
// later Wait on the finished job returns its clean outcome.
func TestServerWaitAbandonMidFlight(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	gate := make(chan struct{})
	h, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "gated", Gate: gate}})
	if err != nil {
		t.Fatal(err)
	}

	cause := errors.New("caller moved on")
	waitCtx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel(cause)
	}()
	if _, err := h.Wait(waitCtx); !errors.Is(err, cause) {
		t.Errorf("Wait on live job: error %v does not unwrap to the wait cause", err)
	}
	select {
	case <-h.Done():
		t.Fatal("abandoning a wait settled the job")
	default:
	}
	if err := h.Err(); err != nil {
		t.Errorf("Err() = %v after abandoned wait, want nil (job still running)", err)
	}

	close(gate)
	if _, err := h.Report(); err != nil {
		t.Fatalf("job failed after abandoned wait: %v", err)
	}
	// The same expired context no longer masks the settled outcome.
	if _, err := h.Wait(waitCtx); err != nil {
		t.Errorf("Wait(expired) on settled job = %v, want nil", err)
	}
}

// TestServerCancelDuringClose pins error precedence when a queued job's
// submission context is canceled while Close drains: the handle settles
// with ErrCanceled, and Wait reports that job error — not the wait
// context's — even when the wait context has also expired.
func TestServerCancelDuringClose(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithQueueDepth(4), serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	blocker, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}})
	if err != nil {
		t.Fatal(err)
	}

	jobCtx, cancelJob := context.WithCancel(context.Background())
	defer cancelJob()
	victim, err := srv.Submit(jobCtx, serve.Job{Alg: &gateAlg{Label: "victim", Gate: gate}})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(10 * time.Millisecond)
	cancelJob() // canceled while queued, mid-drain: never touches the backend

	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Errorf("blocker failed: %v", err)
	}
	expired, cancelWait := context.WithCancel(context.Background())
	cancelWait()
	if _, err := victim.Wait(expired); !errors.Is(err, dcerr.ErrCanceled) {
		t.Errorf("victim Wait(expired) = %v, want the job's ErrCanceled to win over the wait context's", err)
	}
	if err := victim.Err(); !errors.Is(err, dcerr.ErrCanceled) {
		t.Errorf("victim Err() = %v, want ErrCanceled", err)
	}
	if st := srv.Stats(); st.Canceled != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 completed + 1 canceled", st)
	}
}
