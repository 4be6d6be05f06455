package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestFuseBatches pins the segment-merge semantics: concatenated task index
// spaces dispatching back to the owning member, and conservative cost
// merging (coalesced AND, divergent OR, working sets summed, heterogeneous
// costs preserved per item).
func TestFuseBatches(t *testing.T) {
	var ran [3][]int
	mk := func(owner, tasks int, c Cost) Batch {
		return Batch{
			Tasks: tasks,
			Cost:  c,
			Run:   func(i int) { ran[owner] = append(ran[owner], i) },
		}
	}
	parts := []Batch{
		mk(0, 2, Cost{Ops: 4, MemWords: 2, Coalesced: true, WorkingSet: 100}),
		{}, // empty members drop out
		mk(1, 3, Cost{Ops: 4, MemWords: 2, Coalesced: true, WorkingSet: 50}),
		mk(2, 1, Cost{Ops: 10, MemWords: 8, Divergent: true, WorkingSet: 7}),
	}
	b := fuseBatches(parts)
	if b.Tasks != 6 {
		t.Fatalf("Tasks = %d, want 6", b.Tasks)
	}
	// Ranges that cross the member boundaries at 2 and 5, and a single task.
	b.Each(0, 3)
	b.Each(3, 4)
	b.Each(4, 6)
	want := [3][]int{{0, 1}, {0, 1, 2}, {0}}
	for owner := range want {
		if len(ran[owner]) != len(want[owner]) {
			t.Fatalf("owner %d ran %v, want %v", owner, ran[owner], want[owner])
		}
		for j := range want[owner] {
			if ran[owner][j] != want[owner][j] {
				t.Fatalf("owner %d ran %v, want %v", owner, ran[owner], want[owner])
			}
		}
	}
	if b.Cost.Coalesced {
		t.Error("fused batch coalesced despite a divergent member")
	}
	if !b.Cost.Divergent {
		t.Error("fused batch not divergent despite a divergent member")
	}
	if b.Cost.WorkingSet != 157 {
		t.Errorf("WorkingSet = %d, want 157", b.Cost.WorkingSet)
	}
	if b.Cost.MemWords != 8 {
		t.Errorf("MemWords = %v, want max 8", b.Cost.MemWords)
	}
	if b.CostOps == nil {
		t.Fatal("heterogeneous parts must produce a per-item CostOps")
	}
	if got := b.CostOps(5); got != 10 {
		t.Errorf("CostOps(5) = %v, want the owner's 10", got)
	}
	if got := b.CostOps(0); got != 4 {
		t.Errorf("CostOps(0) = %v, want the owner's 4", got)
	}
}

func TestFuseBatchesUniform(t *testing.T) {
	c := Cost{Ops: 5, MemWords: 3, Coalesced: true}
	b := fuseBatches([]Batch{
		{Tasks: 4, Cost: c, Run: func(int) {}},
		{Tasks: 4, Cost: c, Run: func(int) {}},
	})
	if b.CostOps != nil {
		t.Error("uniform equal-cost parts should stay uniform (no CostOps)")
	}
	if b.Cost.Ops != 5 || !b.Cost.Coalesced {
		t.Errorf("uniform cost not preserved: %+v", b.Cost)
	}
}

func TestFuseBatchesSingle(t *testing.T) {
	p := Batch{Tasks: 3, Cost: Cost{Ops: 2}}
	b := fuseBatches([]Batch{{}, p, {}})
	if b.Tasks != 3 || b.Cost.Ops != 2 || b.CostOps != nil {
		t.Errorf("single live part should pass through, got %+v", b)
	}
	if !fuseBatches([]Batch{{}, {}}).Empty() {
		t.Error("all-empty fuse should be empty")
	}
}

// TestFusedChunks pins the double-buffer split: two chunks of roughly equal
// byte volume, order preserved, singleton degenerating to one chunk.
func TestFusedChunks(t *testing.T) {
	cases := []struct {
		bytes []int64
		want  [][]int
	}{
		{[]int64{64}, [][]int{{0}}},
		{[]int64{64, 64}, [][]int{{0}, {1}}},
		{[]int64{64, 64, 64, 64}, [][]int{{0, 1}, {2, 3}}},
		{[]int64{1000, 1, 1}, [][]int{{0}, {1, 2}}},
		{[]int64{1, 1, 1000}, [][]int{{0, 1}, {2}}},
	}
	for _, tc := range cases {
		chunkOf := make([]int, len(tc.bytes))
		got := fusedChunks(tc.bytes, chunkOf)
		if len(got) != len(tc.want) {
			t.Errorf("bytes %v: %d chunks, want %d", tc.bytes, len(got), len(tc.want))
			continue
		}
		for c := range tc.want {
			if len(got[c]) != len(tc.want[c]) {
				t.Errorf("bytes %v: chunk %d = %v, want %v", tc.bytes, c, got[c], tc.want[c])
				continue
			}
			for j, m := range tc.want[c] {
				if got[c][j] != m {
					t.Errorf("bytes %v: chunk %d = %v, want %v", tc.bytes, c, got[c], tc.want[c])
				}
				if got[c][j] == m && chunkOf[m] != c {
					t.Errorf("bytes %v: chunkOf[%d] = %d, want %d", tc.bytes, m, chunkOf[m], c)
				}
			}
		}
	}
}

// TestForestLevels states the forest's leaf alignment once: for trees of
// depths 6, 4 and 3, which tree takes part in which forest level, and at
// which level of its own. Forest level l is level l − (6 − depth) of a tree,
// absent while negative; a tree's root is at forest level 6 − depth, which is
// where its layout is switched back.
func TestForestLevels(t *testing.T) {
	depths := []int{6, 4, 3}
	const absent = -1
	own := [][3]int{ // forest level → each tree's own level
		0: {0, absent, absent},
		1: {1, absent, absent},
		2: {2, 0, absent},
		3: {3, 1, 0},
		4: {4, 2, 1},
		5: {5, 3, 2},
		6: {6, 4, 3}, // the leaves
	}
	trees := stubTrees(depths, nil)
	f := &forest{trees: trees, depth: depths, L: 6, parts: make([]Batch, len(trees))}
	// built runs a constructor and returns what it constructed of each tree.
	built := func(construct func() Batch) (events [3]string) {
		for _, tr := range trees {
			tr.(permStub).log = nil
		}
		construct()
		for i, tr := range trees {
			events[i] = strings.TrimPrefix(strings.Join(tr.(permStub).log, " "), "new ")
		}
		return events
	}
	whole := func(kind string, l int) string { return fmt.Sprintf("%s@%d[0,%d)", kind, l, 1<<l) }
	for l, levels := range own {
		var divide, combine, back [3]string
		for i, lvl := range levels {
			if lvl != absent && l < f.L {
				divide[i], combine[i] = whole("gpu-divide", lvl), whole("gpu-combine", lvl)
			}
			if lvl == 0 {
				back[i] = whole("permute-back", 0)
			}
		}
		if l < f.L {
			if got := built(func() Batch { return f.GPUDivideBatch(l, 0, 3) }); got != divide {
				t.Errorf("divide at forest level %d constructs %q, want %q", l, got, divide)
			}
			if got := built(func() Batch { return f.GPUCombineBatch(l, 0, 3) }); got != combine {
				t.Errorf("combine at forest level %d constructs %q, want %q", l, got, combine)
			}
		}
		if got := built(func() Batch { return f.PermuteBack(l, 0, 3) }); got != back {
			t.Errorf("permute back at forest level %d constructs %q, want %q", l, got, back)
		}
	}
	leaves := [3]string{whole("gpu-base", 6), whole("gpu-base", 4), whole("gpu-base", 3)}
	if got := built(func() Batch { return f.GPUBaseBatch(0, 3) }); got != leaves {
		t.Errorf("base constructs %q, want %q", got, leaves)
	}
	permute := [3]string{whole("permute", 6), whole("permute", 4), whole("permute", 3)}
	if got := built(func() Batch { return f.PermuteForGPU(f.L, 0, 3) }); got != permute {
		t.Errorf("permute constructs %q, want %q", got, permute)
	}
	// A range is a stripe of trees: the second transfer chunk alone.
	chunk := [3]string{"", whole("gpu-divide", 1), whole("gpu-divide", 0)}
	if got := built(func() Batch { return f.GPUDivideBatch(3, 1, 3) }); got != chunk {
		t.Errorf("divide of trees [1,3) at forest level 3 constructs %q, want %q", got, chunk)
	}
	if got, want := f.GPUBytes(0, 1, 3), int64(2); got != want {
		t.Errorf("GPUBytes of trees [1,3) = %d, want %d (one per tree)", got, want)
	}
}
