package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algos/mergesort"
	. "repro/internal/core"
	"repro/internal/hpu"
)

// TestDeviceKernelsOverride keeps DeviceKernels an override, never a mirror:
// an algorithm declares device kernels only when the device runs something
// other than its CPU batches. Each algorithm that implements it is walked
// level by level on its device constructors — inside the §6.3 layout switch
// when it is Transformable, where Sorter's and Summer's combines differ — and
// at least one level's device batch must differ from the CPU constructor's in
// Cost or Tasks; the walk must leave plain Go's output. Each algorithm that
// does not implement it runs its CPU batches on the device, and its gpu-only
// run on HPU1 must leave the sequential run's output bit for bit, and plain
// Go's.
func TestDeviceKernelsOverride(t *testing.T) {
	data := randomData(rand.New(rand.NewSource(9)), 1<<12)
	cases := append(grainCases(), grainCase{
		name: "mergesort-parallel",
		build: func(t *testing.T) Alg {
			s, err := mergesort.NewParallel(data)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		value: func(alg Alg) any { return alg.(*mergesort.ParallelSorter).Result() },
		plain: func() any { return sorted(data) },
	})
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alg := tc.build(t)
			dk, ok := alg.(DeviceKernels)
			if !ok {
				if _, err := RunGPUOnlyCtx(ctx, hpu.MustSim(hpu.HPU1()), alg.(GPUAlg)); err != nil {
					t.Fatal(err)
				}
				ref := tc.build(t)
				if _, err := RunSequentialCtx(ctx, hpu.MustSim(hpu.HPU1()), ref); err != nil {
					t.Fatal(err)
				}
				got := tc.value(alg)
				if !reflect.DeepEqual(got, tc.value(ref)) {
					t.Error("gpu-only output differs from the sequential run's")
				}
				if !near(got, tc.plain()) {
					t.Error("gpu-only output differs from plain Go")
				}
				ReleaseAlg(alg)
				ReleaseAlg(ref)
				return
			}
			a, L := alg.Arity(), alg.Levels()
			differs := 0
			run := func(cpu, dev Batch) {
				if dev.Cost != cpu.Cost || dev.Tasks != cpu.Tasks {
					differs++
				}
				dev.Each(0, dev.Tasks)
			}
			for l := 0; l < L; l++ {
				k := TasksAtLevel(a, l)
				run(alg.DivideBatch(l, 0, k), dk.GPUDivideBatch(l, 0, k))
			}
			leaves := TasksAtLevel(a, L)
			tr, _ := alg.(Transformable)
			if tr != nil {
				b := tr.PermuteForGPU(L, 0, leaves)
				b.Each(0, b.Tasks)
			}
			run(alg.BaseBatch(0, leaves), dk.GPUBaseBatch(0, leaves))
			for l := L - 1; l >= 0; l-- {
				k := TasksAtLevel(a, l)
				run(alg.CombineBatch(l, 0, k), dk.GPUCombineBatch(l, 0, k))
			}
			if tr != nil {
				b := tr.PermuteBack(0, 0, 1)
				b.Each(0, b.Tasks)
			}
			alg.(Finisher).Finish()
			if !near(tc.value(alg), tc.plain()) {
				t.Error("the device kernels' output differs from plain Go")
			}
			if differs == 0 {
				t.Errorf("every device batch of %s equals the CPU constructor's in Cost and Tasks: "+
					"it runs its CPU batches on the device and must not declare DeviceKernels", alg.Name())
			}
			ReleaseAlg(alg)
		})
	}
}
