package serve_test

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/workload"
)

// huntSeed finds a seed whose first len(pattern) attempt plans match the
// wanted fault pattern (true = the attempt faults). Plans are a pure
// function of (seed, attempt), so a probe injector predicts exactly what a
// server-side injector with the same config will draw.
func huntSeed(t *testing.T, cfg faults.Config, probe core.Backend, pattern []bool) int64 {
	t.Helper()
	for seed := int64(0); seed < 4096; seed++ {
		cfg.Seed = seed
		in, err := faults.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, want := range pattern {
			fb := in.Wrap(probe)
			for j := 0; j < 8; j++ {
				fb.TransferToGPU(1, func() {})
			}
			if (fb.Fault() != nil) != want {
				ok = false
				break
			}
		}
		if ok {
			return seed
		}
	}
	t.Fatalf("no seed under 4096 matches pattern %v for %+v", pattern, cfg)
	return 0
}

// sortJob builds a GPUOnly mergesort job over fresh uniform data, with a
// Fresh factory producing pristine copies of the same input.
func sortJob(t *testing.T, n int, dataSeed int64) (serve.Job, []int32) {
	t.Helper()
	data := workload.Uniform(n, dataSeed)
	alg, err := mergesort.New(data)
	if err != nil {
		t.Fatal(err)
	}
	job := serve.Job{
		Alg:      alg,
		Strategy: serve.GPUOnly,
		Fresh: func() (core.Alg, error) {
			a, err := mergesort.New(data)
			return a, err
		},
	}
	want := append([]int32(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return job, want
}

// checkSorted verifies the handle's winning instance holds the expected
// bit-identical output.
func checkSorted(t *testing.T, h *serve.Handle, want []int32) {
	t.Helper()
	out := h.ResultAlg().(*mergesort.Sorter).Result()
	if len(out) != len(want) {
		t.Fatalf("result length %d, want %d", len(out), len(want))
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("result[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func newFaultyServer(t *testing.T, cfg faults.Config, extra ...serve.Option) (*serve.Server, *faults.Injector) {
	t.Helper()
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	in, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(be, append([]serve.Option{serve.WithFaults(in)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		be.Close()
	})
	return srv, in
}

func TestRetryRecoversAfterFault(t *testing.T) {
	probe, err := native.New(native.Config{CPUWorkers: 1, DeviceLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	cfg := faults.Config{KernelErrorRate: 0.5}
	cfg.Seed = huntSeed(t, cfg, probe, []bool{true, false})

	srv, in := newFaultyServer(t, cfg)
	job, want := sortJob(t, 1<<8, 1)
	h, err := srv.Submit(context.Background(), job, serve.WithRetry(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Report(); err != nil {
		t.Fatalf("retried job failed: %v", err)
	}
	if got := h.Attempts(); got != 2 {
		t.Errorf("Attempts() = %d, want 2", got)
	}
	checkSorted(t, h, want)
	if st := srv.Stats(); st.Retries != 1 {
		t.Errorf("Stats.Retries = %d, want 1", st.Retries)
	}
	if c := in.Counts(); c.Injected != 1 {
		t.Errorf("injector counts = %+v, want exactly 1 injected fault", c)
	}
}

func TestRetriesExhausted(t *testing.T) {
	srv, _ := newFaultyServer(t, faults.Config{KernelErrorRate: 1})
	job, _ := sortJob(t, 1<<8, 2)
	h, err := srv.Submit(context.Background(), job, serve.WithRetry(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Report()
	if !errors.Is(err, dcerr.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, dcerr.ErrDeviceFault) {
		t.Fatalf("err = %v, should also match ErrDeviceFault", err)
	}
	if got := h.Attempts(); got != 3 {
		t.Errorf("Attempts() = %d, want 3", got)
	}
	if st := srv.Stats(); st.Failed != 1 || st.Retries != 2 {
		t.Errorf("stats = %+v, want 1 failed / 2 retries", st)
	}
}

func TestFallbackBitIdentical(t *testing.T) {
	srv, _ := newFaultyServer(t, faults.Config{KernelErrorRate: 1})
	job, want := sortJob(t, 1<<9, 3)

	// The reference: the same input run by the sequential executor.
	be, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	ref, err := job.Fresh()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunSequentialCtx(context.Background(), be, ref); err != nil {
		t.Fatal(err)
	}

	h, err := srv.Submit(context.Background(), job, serve.WithRetry(1, 0), serve.WithFallback(serve.CPUOnly))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Report(); err != nil {
		t.Fatalf("fallback job failed: %v", err)
	}
	if !h.FellBack() {
		t.Error("FellBack() = false after an all-faulty device path")
	}
	checkSorted(t, h, want)
	got := h.ResultAlg().(*mergesort.Sorter).Result()
	refOut := ref.(*mergesort.Sorter).Result()
	for i := range got {
		if got[i] != refOut[i] {
			t.Fatalf("fallback result diverges from RunSequential at %d: %d != %d", i, got[i], refOut[i])
		}
	}
	if st := srv.Stats(); st.Fallbacks != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 fallback / 1 completed", st)
	}
}

func TestPolicyRequiresFresh(t *testing.T) {
	srv, _ := newFaultyServer(t, faults.Config{})
	data := workload.Uniform(1<<6, 1)
	alg, err := mergesort.New(data)
	if err != nil {
		t.Fatal(err)
	}
	job := serve.Job{Alg: alg, Strategy: serve.GPUOnly} // no Fresh
	for _, opt := range []core.Option{
		serve.WithRetry(1, 0),
		serve.WithHedge(time.Millisecond),
		serve.WithFallback(serve.CPUOnly),
	} {
		if _, err := srv.Submit(context.Background(), job, opt); !errors.Is(err, dcerr.ErrBadParam) {
			t.Errorf("Submit(re-executing policy, no Fresh) = %v, want ErrBadParam", err)
		}
	}
	if _, err := srv.Submit(context.Background(), job, serve.WithRetry(-1, 0)); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("Submit(negative retries) = %v, want ErrBadParam", err)
	}
	// Deadline alone does not re-execute: no Fresh needed.
	h, err := srv.Submit(context.Background(), job, serve.WithDeadline(time.Minute))
	if err != nil {
		t.Fatalf("Submit(deadline only, no Fresh) = %v, want nil", err)
	}
	if _, err := h.Report(); err != nil {
		t.Fatal(err)
	}
}

func TestHedgeWinsOverStuckDevice(t *testing.T) {
	srv, in := newFaultyServer(t, faults.Config{StuckRate: 1, Stall: 300 * time.Millisecond})
	job, want := sortJob(t, 1<<8, 5)
	h, err := srv.Submit(context.Background(), job, serve.WithHedge(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := h.Report(); err != nil {
		t.Fatalf("hedged job failed: %v", err)
	}
	if !h.HedgeWon() {
		t.Error("HedgeWon() = false: CPU duplicate should beat a 300ms device stall")
	}
	if d := time.Since(start); d >= 300*time.Millisecond {
		t.Errorf("hedged job took %v: waited out the stall instead of racing it", d)
	}
	checkSorted(t, h, want)
	if st := srv.Stats(); st.HedgeWins != 1 {
		t.Errorf("Stats.HedgeWins = %d, want 1", st.HedgeWins)
	}
	if c := in.Counts(); c.StuckLaunches == 0 {
		t.Errorf("injector counts = %+v, expected a stuck launch", c)
	}
}

func TestDeadlineExpiresStuckJob(t *testing.T) {
	srv, _ := newFaultyServer(t, faults.Config{StuckRate: 1, Stall: 150 * time.Millisecond})
	job, _ := sortJob(t, 1<<8, 6)
	job.Fresh = nil // deadline alone does not re-execute
	h, err := srv.Submit(context.Background(), job, serve.WithDeadline(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	if !errors.Is(err, dcerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled from the job deadline", err)
	}
	if !rep.Partial {
		t.Error("deadline-expired report not marked partial")
	}
}

func TestBreakerTripsShedsAndRecovers(t *testing.T) {
	probe, err := native.New(native.Config{CPUWorkers: 1, DeviceLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	cfg := faults.Config{KernelErrorRate: 0.5}
	cfg.Seed = huntSeed(t, cfg, probe, []bool{true, true, false, false})

	cooldown := 20 * time.Millisecond
	srv, _ := newFaultyServer(t, cfg, serve.WithBreaker(2, cooldown))

	// Two consecutive device faults trip the breaker.
	for i := 0; i < 2; i++ {
		job, _ := sortJob(t, 1<<7, int64(10+i))
		job.Fresh = nil
		h, err := srv.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Report(); !errors.Is(err, dcerr.ErrDeviceFault) {
			t.Fatalf("job %d: err = %v, want ErrDeviceFault", i, err)
		}
	}
	st := srv.Stats()
	if st.BreakerTrips != 1 || st.BreakerState != serve.BreakerOpen {
		t.Fatalf("after 2 faults: trips %d state %d, want 1 trip, open", st.BreakerTrips, st.BreakerState)
	}

	// Open breaker sheds GPU-bound admission with ErrDegraded...
	job, _ := sortJob(t, 1<<7, 20)
	job.Fresh = nil
	if _, err := srv.Submit(context.Background(), job); !errors.Is(err, dcerr.ErrDegraded) {
		t.Fatalf("Submit while open = %v, want ErrDegraded", err)
	}
	// ...but a CPUOnly-fallback job is admitted onto the CPU path.
	fjob, want := sortJob(t, 1<<7, 21)
	fh, err := srv.Submit(context.Background(), fjob, serve.WithFallback(serve.CPUOnly))
	if err != nil {
		t.Fatalf("Submit(fallback) while open = %v, want admission", err)
	}
	if _, err := fh.Report(); err != nil {
		t.Fatalf("shed-to-CPU job failed: %v", err)
	}
	if !fh.FellBack() {
		t.Error("FellBack() = false for a job admitted while the breaker was open")
	}
	checkSorted(t, fh, want)

	// After the cooldown, one probe job is admitted; its clean run (the
	// hunted seed's attempt plans are clean from here) closes the breaker.
	time.Sleep(cooldown + 10*time.Millisecond)
	pjob, pwant := sortJob(t, 1<<7, 22)
	pjob.Fresh = nil
	ph, err := srv.Submit(context.Background(), pjob)
	if err != nil {
		t.Fatalf("probe Submit after cooldown = %v, want admission", err)
	}
	if _, err := ph.Report(); err != nil {
		t.Fatalf("probe job failed: %v", err)
	}
	checkSorted(t, ph, pwant)
	st = srv.Stats()
	if st.BreakerState != serve.BreakerClosed {
		t.Errorf("after clean probe: state %d, want closed", st.BreakerState)
	}
	if st.Degraded == 0 {
		t.Errorf("Stats.Degraded = 0, want at least the shed job counted")
	}
}

func TestReliabilityNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	// A subtest, so newFaultyServer's cleanup closes the server and its
	// backend before the count below, not after this test returns.
	t.Run("load", func(t *testing.T) {
		srv, _ := newFaultyServer(t,
			faults.Config{KernelErrorRate: 0.3, StuckRate: 0.2, Stall: time.Millisecond},
			serve.WithBreaker(3, 10*time.Millisecond))
		for i := 0; i < 24; i++ {
			job, _ := sortJob(t, 1<<7, int64(i))
			h, err := srv.Submit(context.Background(), job,
				serve.WithRetry(1, 100*time.Microsecond),
				serve.WithHedge(500*time.Microsecond),
				serve.WithFallback(serve.CPUOnly))
			if errors.Is(err, dcerr.ErrDegraded) || errors.Is(err, dcerr.ErrQueueFull) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Report(); err != nil && !errors.Is(err, dcerr.ErrDegraded) {
				t.Fatalf("job %d: %v", i, err)
			}
		}
	})
	waitGoroutines(t, base)
}
