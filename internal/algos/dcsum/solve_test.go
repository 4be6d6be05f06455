package dcsum

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/core/solvetest"
)

// TestSolveMatchesLevelWalk pins Solve's backward pass against the level
// walk on every partial sum the walk leaves, not only the total.
func TestSolveMatchesLevelWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int32, 1<<10)
	for i := range data {
		data[i] = int32(rng.Intn(2001) - 1000)
	}
	solvetest.MatchesWalk(t, func(t *testing.T) core.Alg {
		s, err := New(data)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Release)
		return s
	}, func(a core.Alg) [][]int64 { return [][]int64{a.(*Summer).v} })
}
