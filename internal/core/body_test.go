package core_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	. "repro/internal/core"
)

// TestRangeBodyEqualsTaskLoop is the contract of Batch's two body forms,
// written on Batch: whichever form a batch has, executing it as one
// Each(0, Tasks), as Tasks single-task calls, or cut at random points leaves
// the same data, bit for bit — RunRange(lo, hi) is the Run loop over
// lo..hi−1, and a Run batch is trivially its own loop. Every batch of every
// level of all eight algorithms goes through each way, built by the CPU
// constructors, by the device constructors, and by the device constructors
// inside the §6.3 layout switch where the algorithm has one — switched back
// at the root, where both switches are identities, and at a mid level,
// whose PermuteBack really moves data, with the CPU constructors above it as
// in a hybrid run; and no constructor may set both bodies.
func TestRangeBodyEqualsTaskLoop(t *testing.T) {
	whole := func(b Batch, _ *rand.Rand) { b.Each(0, b.Tasks) }
	singles := func(b Batch, _ *rand.Rand) {
		for i := 0; i < b.Tasks; i++ {
			b.Each(i, i+1)
		}
	}
	splits := func(b Batch, rng *rand.Rand) {
		for lo := 0; lo < b.Tasks; {
			hi := lo + 1 + rng.Intn(b.Tasks-lo)
			if rng.Intn(4) == 0 {
				hi = min(lo+1+rng.Intn(3), b.Tasks) // short pieces near the cuts too
			}
			b.Each(lo, hi)
			lo = hi
		}
	}
	// walk runs alg to completion level by level, full width, executing
	// each batch through exec.
	walk := func(t *testing.T, alg Alg, ctors string, exec func(Batch, *rand.Rand)) {
		rng := rand.New(rand.NewSource(5))
		run := func(b Batch) {
			if b.Run != nil && b.RunRange != nil {
				t.Fatalf("%s: a level-%d batch sets both Run and RunRange", alg.Name(), b.Level)
			}
			exec(b, rng)
		}
		a, L := alg.Arity(), alg.Levels()
		galg := alg.(GPUAlg)
		tr, _ := alg.(Transformable)
		y := 0 // the level the layout switches back at
		switch ctors {
		case "gpu-coalesced":
		case "gpu-coalesced-mid":
			y = L / 2
		default:
			tr = nil
		}
		for l := 0; l < L; l++ {
			if ctors == "cpu" {
				run(alg.DivideBatch(l, 0, TasksAtLevel(a, l)))
			} else {
				run(galg.GPUDivideBatch(l, 0, TasksAtLevel(a, l)))
			}
		}
		if tr != nil {
			run(tr.PermuteForGPU(L, 0, TasksAtLevel(a, L)))
		}
		if ctors == "cpu" {
			run(alg.BaseBatch(0, TasksAtLevel(a, L)))
		} else {
			run(galg.GPUBaseBatch(0, TasksAtLevel(a, L)))
		}
		for l := L - 1; l >= 0; l-- {
			if ctors == "cpu" || l < y {
				run(alg.CombineBatch(l, 0, TasksAtLevel(a, l)))
			} else {
				run(galg.GPUCombineBatch(l, 0, TasksAtLevel(a, l)))
			}
			if tr != nil && l == y {
				run(tr.PermuteBack(y, 0, TasksAtLevel(a, y)))
			}
		}
		alg.(interface{ Finish() }).Finish()
	}
	for _, tc := range grainCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, ctors := range []string{"cpu", "gpu", "gpu-coalesced", "gpu-coalesced-mid"} {
				if _, ok := tc.build(t).(Transformable); !ok && strings.HasPrefix(ctors, "gpu-coalesced") {
					continue
				}
				ref := tc.build(t)
				walk(t, ref, ctors, whole)
				want := tc.value(ref)
				for name, exec := range map[string]func(Batch, *rand.Rand){"single tasks": singles, "random splits": splits} {
					alg := tc.build(t)
					walk(t, alg, ctors, exec)
					if got := tc.value(alg); !reflect.DeepEqual(got, want) {
						t.Errorf("%s constructors, %s: result differs from Each(0, Tasks)", ctors, name)
					}
				}
			}
		})
	}
}
