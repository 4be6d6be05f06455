package core_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	. "repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/hpu"
)

// TestRunEndsOnceFourDeviceChains drives the fork/join with five portions
// finishing on arbitrary goroutines — the CPU portion and k = 4 device
// chains on the native backend — complete and canceled from inside each kind
// of batch. A run whose end fired twice would release its done WaitGroup
// twice and panic; one whose end never fired would hang; the race detector
// checks that the last portion to finish sees what the others wrote.
func TestRunEndsOnceFourDeviceChains(t *testing.T) {
	be := newMultiNative(t, 4)
	triggers := []struct {
		phase string
		level int
	}{
		{"", 0}, // no cancellation
		{"divide", 0}, {"divide", 4}, {"base", -1}, {"combine", 4},
		{"gpu-divide", 4}, {"gpu-base", -1}, {"gpu-combine", 4}, {"combine", 3}, {"combine", 0},
	}
	for round := 0; round < 5; round++ {
		for _, tr := range triggers {
			ctx, cancel := context.WithCancel(context.Background())
			alg := newCancelAlg(6)
			var once sync.Once
			alg.hook = func(phase string, level int) {
				if phase == tr.phase && level == tr.level {
					once.Do(cancel)
				}
			}
			// Split 3 of a depth-6 binary tree: the CPU keeps 2 of the 8
			// subproblems, the devices get stripes of 2, 2, 1 and 1, solve
			// them through level 4 and combine level 3 on the CPU.
			rep, err := RunMultiGPUCtx(ctx, be, alg, 0.25, 4, WithSplit(3))
			cancel()
			if rep.Strategy != "advanced-4gpu" {
				t.Fatalf("Strategy = %q", rep.Strategy)
			}
			switch {
			case tr.phase == "" && (err != nil || rep.Partial):
				t.Fatalf("complete run: Partial = %v, err = %v", rep.Partial, err)
			case tr.phase != "" && (!errors.Is(err, dcerr.ErrCanceled) || !rep.Partial):
				t.Fatalf("canceled in %s@%d: Partial = %v, err = %v", tr.phase, tr.level, rep.Partial, err)
			}
		}
	}
}

// TestCoalescedHybridsMatchSequentialNative is the purity contract of
// core.Alg, tested: the interpreter constructs the CPU portion's batches
// while device chains construct — and, for a Transformable, mutate layout
// state in — theirs, on other goroutines. Every algorithm, on the advanced
// hybrid and its 2-device form with the §6.3 layout switch on, must still
// equal the sequential run, and under -race no constructor may be seen
// reading what another writes — at every grain too: a coarse CPU portion
// constructs all its levels' batches at once, and runs range bodies and
// per-task ones over sub-ranges of them. The dynamic division runs once per
// algorithm beside them.
func TestCoalescedHybridsMatchSequentialNative(t *testing.T) {
	for _, tc := range grainCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.build(t)
			if _, err := RunSequentialCtx(context.Background(), hpu.MustSim(hpu.HPU1()), ref); err != nil {
				t.Fatal(err)
			}
			want := tc.value(ref)
			for _, devices := range []int{1, 2} {
				be := newMultiNative(t, devices)
				for _, gs := range grainSettings {
					alg := tc.build(t).(GPUAlg)
					opts := []Option{WithGrain(gs.grain), WithCoalesce()}
					if tc.name == "dcsum" && devices > 1 {
						// dcsum keeps a single compact region, so its layout
						// switch cannot be striped over several devices.
						opts = opts[:1]
					}
					var err error
					if y := alg.Levels() / 2; devices == 1 {
						_, err = RunAdvancedHybridCtx(context.Background(), be, alg, 0.3, y, opts...)
					} else {
						_, err = RunMultiGPUCtx(context.Background(), be, alg, 0.3, y, opts...)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := tc.value(alg); !reflect.DeepEqual(got, want) {
						t.Errorf("%d device(s), %s: result differs from the sequential run", devices, gs.name)
					}
				}
			}
			// The dynamic division forks a CPU share and a device chain at
			// every level that splits, so its two chains race the same way.
			alg := tc.build(t).(GPUAlg)
			if _, err := RunDynamicHybridCtx(context.Background(), newMultiNative(t, 1), alg); err != nil {
				t.Fatal(err)
			}
			if got := tc.value(alg); !reflect.DeepEqual(got, want) {
				t.Error("dynamic: result differs from the sequential run")
			}
		})
	}
}
