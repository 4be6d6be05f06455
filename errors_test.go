package hybriddc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	hybriddc "repro"
	"repro/internal/workload"
)

// TestConstructorErrorTaxonomy asserts that every public constructor and
// executor wraps one of the package's sentinel errors, so callers can
// classify any failure with errors.Is without matching message strings.
func TestConstructorErrorTaxonomy(t *testing.T) {
	notPow2 := []int32{1, 2, 3}
	mach := hybriddc.Machine{P: 4, G: 64, Gamma: 0.1}

	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"NewMergesort/non-power-of-two", func() error {
			_, err := hybriddc.NewMergesort(notPow2)
			return err
		}, hybriddc.ErrNotPowerOfTwo},
		{"NewMergesortAny/too-short", func() error {
			_, err := hybriddc.NewMergesortAny([]int32{1})
			return err
		}, hybriddc.ErrBadShape},
		{"NewParallelMergesort/non-power-of-two", func() error {
			_, err := hybriddc.NewParallelMergesort(notPow2)
			return err
		}, hybriddc.ErrNotPowerOfTwo},
		{"NewSum/non-power-of-two", func() error {
			_, err := hybriddc.NewSum(notPow2)
			return err
		}, hybriddc.ErrNotPowerOfTwo},
		{"NewScan/non-power-of-two", func() error {
			_, err := hybriddc.NewScan(notPow2)
			return err
		}, hybriddc.ErrNotPowerOfTwo},
		{"NewMaxSubarray/non-power-of-two", func() error {
			_, err := hybriddc.NewMaxSubarray(notPow2)
			return err
		}, hybriddc.ErrNotPowerOfTwo},
		{"NewFFT/non-power-of-two", func() error {
			_, err := hybriddc.NewFFT(make([]complex128, 3))
			return err
		}, hybriddc.ErrNotPowerOfTwo},
		{"NewKaratsuba/mismatched-operands", func() error {
			_, err := hybriddc.NewKaratsuba([]int32{1, 2}, []int32{1, 2, 3, 4})
			return err
		}, hybriddc.ErrBadShape},
		{"NewMatMul/depth-out-of-range", func() error {
			_, err := hybriddc.NewMatMul(make([]float64, 16), make([]float64, 16), 4, 10)
			return err
		}, hybriddc.ErrBadShape},
		{"NewStrassen/depth-out-of-range", func() error {
			_, err := hybriddc.NewStrassen(make([]float64, 16), make([]float64, 16), 4, 10)
			return err
		}, hybriddc.ErrBadShape},
		{"NewPolyModel/bad-recurrence", func() error {
			_, err := hybriddc.NewPolyModel(1, 2, 1024, mach)
			return err
		}, hybriddc.ErrBadParam},
		{"NewNumericModel/no-levels", func() error {
			_, err := hybriddc.NewNumericModel(2, 2, 0, func(float64) float64 { return 1 }, 1, mach)
			return err
		}, hybriddc.ErrBadParam},
		{"NewSim/zero-platform", func() error {
			_, err := hybriddc.NewSim(hybriddc.Platform{})
			return err
		}, hybriddc.ErrBadParam},
		{"NewMultiSim/no-devices", func() error {
			_, err := hybriddc.NewMultiSim(hybriddc.HPU1(), 0)
			return err
		}, hybriddc.ErrBadParam},
		{"NewNative/negative-lanes", func() error {
			_, err := hybriddc.NewNative(hybriddc.NativeConfig{DeviceLanes: -1})
			return err
		}, hybriddc.ErrBadParam},
		{"NewServer/nil-backend", func() error {
			_, err := hybriddc.NewServer(nil)
			return err
		}, hybriddc.ErrBadParam},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("constructor accepted invalid input")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %q does not unwrap to the sentinel %q", err, tc.want)
			}
		})
	}
}

// TestExecutorErrorTaxonomy covers the executors' parameter, capability, and
// lifecycle sentinels through the public facade.
func TestExecutorErrorTaxonomy(t *testing.T) {
	sorter := func(t *testing.T) hybriddc.GPUAlg {
		s, err := hybriddc.NewMergesort(make([]int32, 64))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()

	t.Run("bad-alpha", func(t *testing.T) {
		be := hybriddc.MustSim(hybriddc.HPU1())
		if _, err := hybriddc.RunAdvancedHybridCtx(ctx, be, sorter(t), 2, 3); !errors.Is(err, hybriddc.ErrBadAlpha) {
			t.Errorf("error %v does not unwrap to ErrBadAlpha", err)
		}
	})
	t.Run("bad-level", func(t *testing.T) {
		be := hybriddc.MustSim(hybriddc.HPU1())
		if _, err := hybriddc.RunAdvancedHybridCtx(ctx, be, sorter(t), 0.5, -1); !errors.Is(err, hybriddc.ErrBadLevel) {
			t.Errorf("advanced y=-1: error %v does not unwrap to ErrBadLevel", err)
		}
		if _, err := hybriddc.RunBasicHybridCtx(ctx, be, sorter(t), -1); !errors.Is(err, hybriddc.ErrBadLevel) {
			t.Errorf("basic crossover=-1: error %v does not unwrap to ErrBadLevel", err)
		}
	})
	t.Run("no-gpu", func(t *testing.T) {
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: 1}) // no device lanes
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		if _, err := hybriddc.RunGPUOnlyCtx(ctx, be, sorter(t)); !errors.Is(err, hybriddc.ErrNoGPU) {
			t.Errorf("error %v does not unwrap to ErrNoGPU", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		be := hybriddc.MustSim(hybriddc.HPU1())
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		rep, err := hybriddc.RunSequentialCtx(cctx, be, sorter(t))
		if !errors.Is(err, hybriddc.ErrCanceled) {
			t.Errorf("error %v does not unwrap to ErrCanceled", err)
		}
		if !rep.Partial {
			t.Error("canceled run's Report not marked Partial")
		}
	})
	t.Run("backend-closed", func(t *testing.T) {
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
		if err := be.Close(); !errors.Is(err, hybriddc.ErrBackendClosed) {
			t.Errorf("double Close: error %v does not unwrap to ErrBackendClosed", err)
		}
		if _, err := hybriddc.RunSequentialCtx(ctx, be, sorter(t)); !errors.Is(err, hybriddc.ErrBackendClosed) {
			t.Errorf("run on closed backend: error %v does not unwrap to ErrBackendClosed", err)
		}
	})
	t.Run("server-lifecycle", func(t *testing.T) {
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		srv, err := hybriddc.NewServer(be, hybriddc.WithQueueDepth(1), hybriddc.WithMaxInFlight(1))
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		blocker := &gatedJob{gate: gate}
		h1, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: blocker})
		if err != nil {
			t.Fatal(err)
		}
		// The blocker occupies the single slot; fill the one-deep queue.
		h2, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: &gatedJob{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: &gatedJob{}}); !errors.Is(err, hybriddc.ErrQueueFull) {
			t.Errorf("overflow submit: error %v does not unwrap to ErrQueueFull", err)
		}
		close(gate)
		for _, h := range []*hybriddc.JobHandle{h1, h2} {
			if _, err := h.Report(); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: &gatedJob{}}); !errors.Is(err, hybriddc.ErrServerClosed) {
			t.Errorf("submit after Close: error %v does not unwrap to ErrServerClosed", err)
		}
	})
}

// TestReliabilityErrorTaxonomy drives the fault-injection and reliability
// sentinels through the public facade and asserts the full errors.Is matrix:
// each wrapped chain (retry-exhausted, failed-fallback, breaker shed) must
// match every sentinel a caller could reasonably classify on.
func TestReliabilityErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	newServer := func(t *testing.T, rate float64, opts ...hybriddc.ServerOption) *hybriddc.Server {
		t.Helper()
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: 2, DeviceLanes: 4})
		if err != nil {
			t.Fatal(err)
		}
		in, err := hybriddc.NewFaultInjector(hybriddc.FaultsConfig{Seed: 1, KernelErrorRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := hybriddc.NewServer(be, append([]hybriddc.ServerOption{hybriddc.WithServerFaults(in)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			be.Close()
		})
		return srv
	}
	sortSpec := func(t *testing.T) hybriddc.JobSpec {
		t.Helper()
		data := workload.Uniform(1<<7, 9)
		alg, err := hybriddc.NewMergesort(data)
		if err != nil {
			t.Fatal(err)
		}
		return hybriddc.JobSpec{
			Alg:      alg,
			Strategy: hybriddc.JobGPUOnly,
			Fresh: func() (hybriddc.Alg, error) {
				a, err := hybriddc.NewMergesort(data)
				return a, err
			},
		}
	}

	t.Run("device-fault-surfaces", func(t *testing.T) {
		srv := newServer(t, 1)
		spec := sortSpec(t)
		spec.Fresh = nil
		h, err := srv.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Report()
		if !errors.Is(err, hybriddc.ErrDeviceFault) {
			t.Errorf("injected fault %v does not unwrap to ErrDeviceFault", err)
		}
		if !rep.Partial {
			t.Error("faulted run's Report not marked Partial")
		}
	})
	t.Run("retries-exhausted-matches-both", func(t *testing.T) {
		srv := newServer(t, 1)
		h, err := srv.Submit(ctx, sortSpec(t), hybriddc.WithRetry(2, 0))
		if err != nil {
			t.Fatal(err)
		}
		_, err = h.Report()
		for _, want := range []error{hybriddc.ErrRetriesExhausted, hybriddc.ErrDeviceFault} {
			if !errors.Is(err, want) {
				t.Errorf("exhausted-retries error %v does not unwrap to %v", err, want)
			}
		}
		if errors.Is(err, hybriddc.ErrDegraded) {
			t.Errorf("exhausted-retries error %v must not match ErrDegraded", err)
		}
	})
	t.Run("fallback-recovers", func(t *testing.T) {
		srv := newServer(t, 1)
		h, err := srv.Submit(ctx, sortSpec(t), hybriddc.WithRetry(1, 0), hybriddc.WithFallback(hybriddc.CPUOnly))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Report(); err != nil {
			t.Fatalf("fallback-wrapped job failed: %v", err)
		}
		if !h.FellBack() {
			t.Error("FellBack() = false after an all-faulty device path")
		}
	})
	t.Run("breaker-degraded", func(t *testing.T) {
		srv := newServer(t, 1, hybriddc.WithBreaker(1, time.Minute))
		spec := sortSpec(t)
		spec.Fresh = nil
		h, err := srv.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Report(); !errors.Is(err, hybriddc.ErrDeviceFault) {
			t.Fatalf("tripping job: %v, want ErrDeviceFault", err)
		}
		_, err = srv.Submit(ctx, spec)
		if !errors.Is(err, hybriddc.ErrDegraded) {
			t.Errorf("shed submit error %v does not unwrap to ErrDegraded", err)
		}
		if errors.Is(err, hybriddc.ErrDeviceFault) {
			t.Errorf("shed submit error %v must not match ErrDeviceFault", err)
		}
	})
	t.Run("policy-validation", func(t *testing.T) {
		srv := newServer(t, 0)
		spec := sortSpec(t)
		spec.Fresh = nil
		if _, err := srv.Submit(ctx, spec, hybriddc.WithRetry(1, 0)); !errors.Is(err, hybriddc.ErrBadParam) {
			t.Errorf("re-executing policy without Fresh: %v, want ErrBadParam", err)
		}
	})
}

// TestHandleWaitDoneContract pins the JobHandle observation semantics:
// a finished job always wins over an expired wait context; a wait-context
// expiry abandons only the wait (the job keeps running and Done stays
// open); and the job's own error — including ErrCanceled from the
// submission context — takes precedence over the wait context's cause.
func TestHandleWaitDoneContract(t *testing.T) {
	ctx := context.Background()
	newSrv := func(t *testing.T, opts ...hybriddc.ServerOption) *hybriddc.Server {
		t.Helper()
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: 2, DeviceLanes: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := hybriddc.NewServer(be, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			be.Close()
		})
		return srv
	}

	t.Run("finished-job-beats-expired-wait-ctx", func(t *testing.T) {
		srv := newSrv(t)
		s, err := hybriddc.NewMergesort(workload.Uniform(1<<7, 3))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: s})
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := h.Report() // settles the handle
		expired, cancel := context.WithCancel(ctx)
		cancel()
		rep, err := h.Wait(expired)
		if !errors.Is(err, wantErr) || err != nil {
			t.Errorf("Wait on settled handle with expired ctx: err = %v, want job outcome %v", err, wantErr)
		}
		if rep.Seconds != want.Seconds || rep.Strategy != want.Strategy {
			t.Errorf("Wait on settled handle returned %+v, want the settled Report %+v", rep, want)
		}
	})
	t.Run("wait-expiry-abandons-only-the-wait", func(t *testing.T) {
		srv := newSrv(t, hybriddc.WithMaxInFlight(1))
		gate := make(chan struct{})
		h, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: &gatedJob{gate: gate}})
		if err != nil {
			t.Fatal(err)
		}
		short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		if _, err := h.Wait(short); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("expired wait: err = %v, want the wait context's cause (DeadlineExceeded)", err)
		}
		select {
		case <-h.Done():
			t.Error("Done closed by an abandoned wait; the job should still be running")
		default:
		}
		if err := h.Err(); err != nil {
			t.Errorf("Err() on a still-running job = %v, want nil", err)
		}
		close(gate)
		if _, err := h.Report(); err != nil {
			t.Errorf("job failed after an abandoned wait: %v", err)
		}
		select {
		case <-h.Done():
		default:
			t.Error("Done not closed after settlement")
		}
	})
	t.Run("job-error-precedence-over-wait-ctx", func(t *testing.T) {
		srv := newSrv(t, hybriddc.WithMaxInFlight(1), hybriddc.WithQueueDepth(4))
		gate := make(chan struct{})
		if _, err := srv.Submit(ctx, hybriddc.JobSpec{Alg: &gatedJob{gate: gate}}); err != nil {
			t.Fatal(err)
		}
		cctx, cancelJob := context.WithCancel(ctx)
		h, err := srv.Submit(cctx, hybriddc.JobSpec{Alg: &gatedJob{}})
		if err != nil {
			t.Fatal(err)
		}
		cancelJob() // cancel the queued job's submission context
		close(gate) // free the slot: the canceled job settles at dispatch
		<-h.Done()
		expired, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := h.Wait(expired); !errors.Is(err, hybriddc.ErrCanceled) {
			t.Errorf("Wait(expired) on canceled job: err = %v, want the job's ErrCanceled", err)
		}
		if err := h.Err(); !errors.Is(err, hybriddc.ErrCanceled) {
			t.Errorf("Err() after settlement = %v, want ErrCanceled", err)
		}
	})
}

// gatedJob is a minimal two-leaf Alg whose base tasks optionally block on a
// channel, used to pin the server's in-flight slot.
type gatedJob struct{ gate chan struct{} }

func (g *gatedJob) Name() string { return "gated" }
func (g *gatedJob) Arity() int   { return 2 }
func (g *gatedJob) Shrink() int  { return 2 }
func (g *gatedJob) N() int       { return 2 }
func (g *gatedJob) Levels() int  { return 1 }

func (g *gatedJob) DivideBatch(level, lo, hi int) hybriddc.Batch { return hybriddc.Batch{} }
func (g *gatedJob) BaseBatch(lo, hi int) hybriddc.Batch {
	return hybriddc.Batch{Tasks: hi - lo, Cost: hybriddc.Cost{Ops: 1}, Run: func(int) {
		if g.gate != nil {
			<-g.gate
		}
	}}
}
func (g *gatedJob) CombineBatch(level, lo, hi int) hybriddc.Batch { return hybriddc.Batch{} }
