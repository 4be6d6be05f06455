package core

import (
	"reflect"
	"testing"
)

func TestCostScale(t *testing.T) {
	c := Cost{Ops: 2, MemWords: 4, Coalesced: true, Divergent: true, WorkingSet: 100}
	s := c.Scale(3)
	if s.Ops != 6 || s.MemWords != 12 {
		t.Errorf("Scale = %+v", s)
	}
	if !s.Coalesced || !s.Divergent || s.WorkingSet != 100 {
		t.Errorf("Scale changed non-magnitude fields: %+v", s)
	}
}

func TestBatchHelpers(t *testing.T) {
	if !(Batch{}).Empty() {
		t.Error("zero batch not empty")
	}
	if (Batch{Tasks: 1}).Empty() {
		t.Error("one-task batch empty")
	}
	b := Batch{Tasks: 5, Cost: Cost{Ops: 3}}
	if got := b.TotalOps(); got != 15 {
		t.Errorf("TotalOps = %g, want 15", got)
	}
	b.Each(0, 5) // a cost-model batch has no body to run
	var ran []int
	Batch{Tasks: 5, Run: func(i int) { ran = append(ran, i) }}.Each(1, 4)
	Batch{Tasks: 5, RunRange: func(lo, hi int) { ran = append(ran, 10*lo+hi) }}.Each(1, 4)
	if want := []int{1, 2, 3, 14}; !reflect.DeepEqual(ran, want) {
		t.Errorf("Each(1, 4) on a Run batch, then on a RunRange batch, ran %v, want %v", ran, want)
	}
}

func TestTasksAtLevel(t *testing.T) {
	cases := []struct{ a, level, want int }{
		{2, 0, 1}, {2, 10, 1024}, {3, 3, 27}, {8, 2, 64},
	}
	for _, c := range cases {
		if got := TasksAtLevel(c.a, c.level); got != c.want {
			t.Errorf("TasksAtLevel(%d,%d) = %d, want %d", c.a, c.level, got, c.want)
		}
	}
}

// stubAlg is a minimal Alg for DefaultSplit testing.
type stubAlg struct{ a, levels int }

func (s stubAlg) Name() string                         { return "stub" }
func (s stubAlg) Arity() int                           { return s.a }
func (s stubAlg) Shrink() int                          { return 2 }
func (s stubAlg) N() int                               { return 1 << s.levels }
func (s stubAlg) Levels() int                          { return s.levels }
func (s stubAlg) DivideBatch(level, lo, hi int) Batch  { return Batch{} }
func (s stubAlg) BaseBatch(lo, hi int) Batch           { return Batch{} }
func (s stubAlg) CombineBatch(level, lo, hi int) Batch { return Batch{} }

func TestDefaultSplit(t *testing.T) {
	alg := stubAlg{a: 2, levels: 20}
	// α·2^s >= p: with p=4, α=0.16: 2^s >= 25 → s = 5.
	if got := DefaultSplit(alg, 4, 0.16, 10); got != 5 {
		t.Errorf("DefaultSplit = %d, want 5", got)
	}
	// Clamped by y.
	if got := DefaultSplit(alg, 4, 0.01, 3); got != 3 {
		t.Errorf("DefaultSplit clamp = %d, want 3", got)
	}
	// α = 0 puts the split at the root.
	if got := DefaultSplit(alg, 4, 0, 10); got != 0 {
		t.Errorf("DefaultSplit(α=0) = %d, want 0", got)
	}
	// Arity 3.
	if got := DefaultSplit(stubAlg{a: 3, levels: 10}, 4, 0.5, 9); got != 2 {
		t.Errorf("DefaultSplit(a=3) = %d, want 2 (0.5·3^2 = 4.5 >= 4)", got)
	}
}
