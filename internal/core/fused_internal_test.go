package core

import "testing"

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
