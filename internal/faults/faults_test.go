package faults_test

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/hpu"
	"repro/internal/native"
	"repro/internal/workload"
)

// plans reads n attempt plans off a fresh injector by wrapping a throwaway
// backend and probing what each wrap decided.
func plans(t *testing.T, cfg faults.Config, be core.Backend, n int) []error {
	t.Helper()
	in, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]error, n)
	for i := range out {
		fb := in.Wrap(be)
		// Trip enough device ops to reach any trigger.
		for j := 0; j < 8; j++ {
			fb.TransferToGPU(1, func() {})
		}
		out[i] = fb.Fault()
	}
	return out
}

func TestDeterministicUnderSeed(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 1, DeviceLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cfg := faults.Config{Seed: 42, KernelErrorRate: 0.3, TransferErrorRate: 0.2, CloseRaceRate: 0.1}
	a := plans(t, cfg, be, 64)
	b := plans(t, cfg, be, 64)
	faulted := 0
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("attempt %d: schedule not reproducible: %v vs %v", i, a[i], b[i])
		}
		if a[i] != nil {
			faulted++
			if a[i].Error() != b[i].Error() {
				t.Fatalf("attempt %d: different fault: %q vs %q", i, a[i], b[i])
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no faults drawn in 64 attempts at 60% rate")
	}
	// A different seed must give a different schedule.
	c := plans(t, faults.Config{Seed: 43, KernelErrorRate: 0.3, TransferErrorRate: 0.2, CloseRaceRate: 0.1}, be, 64)
	same := 0
	for i := range a {
		if (a[i] == nil) == (c[i] == nil) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed 42 and 43 drew identical schedules")
	}
}

func TestValidate(t *testing.T) {
	for _, cfg := range []faults.Config{
		{KernelErrorRate: -0.1},
		{KernelErrorRate: 1.5},
		{KernelErrorRate: 0.6, TransferErrorRate: 0.6},
		{TriggerSpan: -1},
	} {
		if _, err := faults.New(cfg); !errors.Is(err, dcerr.ErrBadParam) {
			t.Errorf("New(%+v) = %v, want ErrBadParam", cfg, err)
		}
	}
	if _, err := faults.New(faults.Config{KernelErrorRate: 0.5, StuckRate: 0.5}); err != nil {
		t.Errorf("rates summing to exactly 1 rejected: %v", err)
	}
}

// runFaulted runs a GPU-only and a dynamic per-level mergesort under a 100%
// fault rate and checks each executor surfaces the fault as ErrDeviceFault
// with a partial report.
func runFaulted(t *testing.T, be core.Backend, kind string, cfg faults.Config) {
	t.Helper()
	for _, run := range []func(context.Context, core.Backend, core.GPUAlg, ...core.Option) (core.Report, error){
		core.RunGPUOnlyCtx, core.RunDynamicHybridCtx,
	} {
		in, err := faults.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := mergesort.New(workload.Uniform(1<<8, 7))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := run(context.Background(), in.Wrap(be), alg)
		if !errors.Is(err, dcerr.ErrDeviceFault) {
			t.Fatalf("%s %s: err = %v, want ErrDeviceFault", kind, rep.Strategy, err)
		}
		if !rep.Partial {
			t.Errorf("%s %s: faulted run's report not marked partial", kind, rep.Strategy)
		}
		if c := in.Counts(); c.Injected != 1 || c.Attempts != 1 {
			t.Errorf("%s %s: counts = %+v, want 1 injected / 1 attempt", kind, rep.Strategy, c)
		}
	}
}

func TestFaultsSurfaceOnNativeBackend(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	runFaulted(t, be, "kernel", faults.Config{Seed: 1, KernelErrorRate: 1})
	runFaulted(t, be, "transfer", faults.Config{Seed: 1, TransferErrorRate: 1})
	runFaulted(t, be, "close-race", faults.Config{Seed: 1, CloseRaceRate: 1})
}

func TestCloseRaceAlsoMatchesBackendClosed(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	in, err := faults.New(faults.Config{Seed: 1, CloseRaceRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := mergesort.New(workload.Uniform(1<<8, 7))
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.RunGPUOnlyCtx(context.Background(), in.Wrap(be), alg)
	if !errors.Is(err, dcerr.ErrDeviceFault) || !errors.Is(err, dcerr.ErrBackendClosed) {
		t.Fatalf("close race err = %v, want both ErrDeviceFault and ErrBackendClosed", err)
	}
}

func TestFaultsSurfaceOnSimBackend(t *testing.T) {
	sim := hpu.MustSim(hpu.HPU1())
	runFaulted(t, sim, "sim-kernel", faults.Config{Seed: 3, KernelErrorRate: 1})
}

// TestStuckLaunchCompletes checks a StuckLaunch delays but does not corrupt:
// the run finishes with a correct result and no recorded fault error.
func TestStuckLaunchCompletes(t *testing.T) {
	for name, be := range map[string]core.Backend{
		"native": func() core.Backend {
			b, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b
		}(),
		"sim": hpu.MustSim(hpu.HPU1()),
	} {
		in, err := faults.New(faults.Config{Seed: 5, StuckRate: 1, Stall: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		alg, err := mergesort.New(workload.Uniform(1<<8, 11))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunGPUOnlyCtx(context.Background(), in.Wrap(be), alg); err != nil {
			t.Fatalf("%s: stuck launch failed the run: %v", name, err)
		}
		out := alg.Result()
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
			t.Errorf("%s: output not sorted after stuck launch", name)
		}
		if c := in.Counts(); c.StuckLaunches != 1 {
			t.Errorf("%s: counts = %+v, want 1 stuck launch", name, c)
		}
	}
}
