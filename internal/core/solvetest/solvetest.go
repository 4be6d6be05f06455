// Package solvetest holds what the tests of every core.Solver share: the
// check that a Solve leaves what the level walk it replaces would have left.
package solvetest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/native"
)

// walked hides an algorithm's Solve, so CoarseBatch walks its levels.
type walked struct{ core.Alg }

// MatchesWalk pins the Solver contract on the instances build returns, all
// over the same input: for every coarse root level and a whole, a single
// and a random range of subtrees, the priced coarse batch has the walked
// one's Tasks, Cost and Level, the unpriced one (an autonomous backend's)
// the same Tasks and Level and no Cost, and both leave in every buffer that
// slots lists exactly what the walk leaves there. A Solve that carried
// state from one subtree into the next would differ on every whole range
// below the root. The native subtest runs whole breadth-first runs, whose
// coarse tasks solve disjoint subtrees concurrently.
func MatchesWalk[E comparable](t *testing.T, build func(t *testing.T) core.Alg, slots func(core.Alg) [][]E) {
	t.Helper()
	same := func(t *testing.T, what string, got, want core.Alg) {
		t.Helper()
		g, w := slots(got), slots(want)
		for b := range w {
			for i := range w[b] {
				if g[b][i] != w[b][i] {
					t.Fatalf("%s: buffer %d slot %d = %v solved, %v walked", what, b, i, g[b][i], w[b][i])
				}
			}
		}
	}
	L := build(t).Levels()
	rng := rand.New(rand.NewSource(5))
	for cl := 0; cl <= L; cl++ {
		w := core.TasksAtLevel(2, cl)
		one := rng.Intn(w)
		lo := rng.Intn(w)
		hi := lo + 1 + rng.Intn(w-lo)
		for _, r := range []struct {
			name   string
			lo, hi int
		}{{"whole", 0, w}, {"single", one, one + 1}, {"random", lo, hi}} {
			t.Run(fmt.Sprintf("cl=%d/%s", cl, r.name), func(t *testing.T) {
				priced, unpriced, walk := build(t), build(t), build(t)
				pb := core.CoarseBatch(priced, cl, r.lo, r.hi, nil, true)
				ub := core.CoarseBatch(unpriced, cl, r.lo, r.hi, nil, false)
				wb := core.CoarseBatch(walked{walk}, cl, r.lo, r.hi, nil, true)
				if pb.Tasks != wb.Tasks || pb.Cost != wb.Cost || pb.Level != wb.Level {
					t.Fatalf("priced batch {%d %+v %d}, walked {%d %+v %d}",
						pb.Tasks, pb.Cost, pb.Level, wb.Tasks, wb.Cost, wb.Level)
				}
				if ub.Tasks != wb.Tasks || ub.Cost != (core.Cost{}) || ub.Level != wb.Level {
					t.Fatalf("unpriced batch {%d %+v %d}, want {%d {} %d}",
						ub.Tasks, ub.Cost, ub.Level, wb.Tasks, wb.Level)
				}
				for _, b := range []core.Batch{pb, ub, wb} {
					b.Each(0, b.Tasks)
				}
				what := fmt.Sprintf("subtrees [%d, %d) of level %d", r.lo, r.hi, cl)
				same(t, what+" priced", priced, walk)
				same(t, what+" unpriced", unpriced, walk)
			})
		}
	}
	t.Run("native", func(t *testing.T) {
		nb, err := native.New(native.Config{CPUWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer nb.Close()
		for _, g := range []int{2, 16, 64, core.GrainAuto} {
			direct, walk := build(t), build(t)
			for _, alg := range []core.Alg{direct, walked{walk}} {
				if _, err := core.RunBreadthFirstCPUCtx(context.Background(), nb, alg, core.WithGrain(g)); err != nil {
					t.Fatal(err)
				}
			}
			same(t, fmt.Sprintf("grain %d", g), direct, walk)
		}
	})
}
