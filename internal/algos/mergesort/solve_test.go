package mergesort

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/core/solvetest"
)

// TestSolveMatchesLevelWalk pins Solve against the level walk on both
// parity buffers, for Sorter and for ParallelSorter, whose CPU combines and
// Solve are Sorter's. At 2^14 elements the subtrees of the top two levels
// are larger than a cache block, so their Solve runs in blocks.
func TestSolveMatchesLevelWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int32, 1<<14)
	for i := range data {
		data[i] = int32(rng.Intn(1 << 10)) // with duplicates
	}
	sorter := func(t *testing.T) *Sorter {
		s, err := New(data)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Release)
		// buf[1] is a lease with unspecified contents; slots a range's
		// merges do not reach must compare equal.
		for i := range s.buf[1] {
			s.buf[1][i] = -1
		}
		return s
	}
	slots := func(a core.Alg) [][]int32 {
		s, ok := a.(*Sorter)
		if !ok {
			s = a.(*ParallelSorter).Sorter
		}
		return s.buf[:]
	}
	t.Run("sorter", func(t *testing.T) {
		solvetest.MatchesWalk(t, func(t *testing.T) core.Alg { return sorter(t) }, slots)
	})
	t.Run("parallel", func(t *testing.T) {
		solvetest.MatchesWalk(t, func(t *testing.T) core.Alg { return &ParallelSorter{Sorter: sorter(t)} }, slots)
	})
}
