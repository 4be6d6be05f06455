package core

import "testing"

// TestCoarseLevels pins the grain→k resolution: explicit grains collapse
// ⌊log_a(grain)⌋ levels bounded by the floor, and auto keeps at least
// autoGrainSlack·p coarse subtrees.
func TestCoarseLevels(t *testing.T) {
	full := func(a int) func(int) int {
		return func(cl int) int { return TasksAtLevel(a, cl) }
	}
	cases := []struct {
		name                  string
		grain, a, L, floor, p int
		tasksAt               func(int) int
		want                  int
	}{
		{"off-0", 0, 2, 10, 0, 4, full(2), 0},
		{"off-1", 1, 2, 10, 0, 4, full(2), 0},
		{"grain-4-a2", 4, 2, 10, 0, 4, full(2), 2},
		{"grain-64-a2", 64, 2, 10, 0, 4, full(2), 6},
		{"grain-not-power", 5, 2, 10, 0, 4, full(2), 2},
		{"grain-3-a3", 3, 3, 6, 0, 4, full(3), 1},
		{"grain-9-a3", 9, 3, 6, 0, 4, full(3), 2},
		{"floor-clamps", 1 << 20, 2, 10, 7, 4, full(2), 3},
		{"floor-at-L", 64, 2, 10, 10, 4, full(2), 0},
		// Auto with p=4 wants ≥16 subtrees: for L=10, a=2 the coarse root
		// can rise to level 4 (16 tasks), collapsing 6 levels.
		{"auto", GrainAuto, 2, 10, 0, 4, full(2), 6},
		{"auto-small-tree", GrainAuto, 2, 3, 0, 4, full(2), 0},
		{"auto-floored", GrainAuto, 2, 10, 8, 4, full(2), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := coarseLevels(c.grain, c.a, c.L, c.floor, c.p, c.tasksAt); got != c.want {
				t.Errorf("coarseLevels(grain=%d, a=%d, L=%d, floor=%d, p=%d) = %d, want %d",
					c.grain, c.a, c.L, c.floor, c.p, got, c.want)
			}
		})
	}
}

// gridAlg is a synthetic algorithm whose every phase writes a distinct tag
// into a log cell per (phase, level, task), so a test can verify exactly
// which work a coarse batch runs and in what per-subtree order.
type gridAlg struct {
	L     int
	trace []int32 // one cell per leaf; accumulates a checksum
}

func (g *gridAlg) Name() string { return "grid" }
func (g *gridAlg) Arity() int   { return 2 }
func (g *gridAlg) Shrink() int  { return 2 }
func (g *gridAlg) N() int       { return 1 << g.L }
func (g *gridAlg) Levels() int  { return g.L }

func (g *gridAlg) leafRange(level, i int) (int, int) {
	w := 1 << (g.L - level)
	return i * w, (i + 1) * w
}

func (g *gridAlg) mark(level, i int, tag int32) {
	lo, hi := g.leafRange(level, i)
	for x := lo; x < hi; x++ {
		g.trace[x] = g.trace[x]*31 + tag
	}
}

func (g *gridAlg) DivideBatch(level, lo, hi int) Batch {
	if hi <= lo {
		return Batch{}
	}
	return Batch{Tasks: hi - lo, Cost: Cost{Ops: 1}, Run: func(i int) { g.mark(level, lo+i, int32(1+level)) }}
}

func (g *gridAlg) BaseBatch(lo, hi int) Batch {
	if hi <= lo {
		return Batch{}
	}
	return Batch{Tasks: hi - lo, Cost: Cost{Ops: 2}, Run: func(i int) { g.mark(g.L, lo+i, 101) }}
}

func (g *gridAlg) CombineBatch(level, lo, hi int) Batch {
	if hi <= lo {
		return Batch{}
	}
	return Batch{Tasks: hi - lo, Cost: Cost{Ops: 3}, Run: func(i int) { g.mark(level, lo+i, int32(201+level)) }}
}

// TestCoarseBatchCoversSubtreeExactly pins CoarseBatch semantics: task j
// performs precisely the divide/base/combine work of subtree j in
// depth-phase order, producing the same per-leaf trace as level-by-level
// execution, and the aggregate per-task cost matches the sum over phases.
func TestCoarseBatchCoversSubtreeExactly(t *testing.T) {
	const L = 5
	ref := &gridAlg{L: L, trace: make([]int32, 1<<L)}
	for l := 0; l < L; l++ {
		runAll(ref.DivideBatch(l, 0, TasksAtLevel(2, l)))
	}
	runAll(ref.BaseBatch(0, TasksAtLevel(2, L)))
	for l := L - 1; l >= 0; l-- {
		runAll(ref.CombineBatch(l, 0, TasksAtLevel(2, l)))
	}

	const cl = 2
	got := &gridAlg{L: L, trace: make([]int32, 1<<L)}
	for l := 0; l < cl; l++ {
		runAll(got.DivideBatch(l, 0, TasksAtLevel(2, l)))
	}
	cb := CoarseBatch(got, cl, 0, TasksAtLevel(2, cl), nil, true)
	if cb.Tasks != TasksAtLevel(2, cl) {
		t.Fatalf("coarse batch has %d tasks, want %d", cb.Tasks, TasksAtLevel(2, cl))
	}
	runAll(cb)
	for l := cl - 1; l >= 0; l-- {
		runAll(got.CombineBatch(l, 0, TasksAtLevel(2, l)))
	}

	for i := range ref.trace {
		if got.trace[i] != ref.trace[i] {
			t.Fatalf("leaf %d: coarse trace %d != level-by-level trace %d", i, got.trace[i], ref.trace[i])
		}
	}

	// Cost aggregation: per subtree, levels cl..L-1 contribute 2^(l-cl)
	// divide tasks of 1 op each, 2^(L-cl) base tasks of 2 ops, and the
	// combine mirror at 3 ops.
	wantOps := 0.0
	for l := cl; l < L; l++ {
		wantOps += float64(TasksAtLevel(2, l-cl)) * (1 + 3)
	}
	wantOps += float64(TasksAtLevel(2, L-cl)) * 2
	if cb.Cost.Ops != wantOps {
		t.Errorf("coarse per-task Ops = %g, want %g", cb.Cost.Ops, wantOps)
	}
}

func runAll(b Batch) { b.Each(0, b.Tasks) }

// orderAlg records, in execution order, every task any of its batches runs:
// the order inside a coarse task is what TestCoarseBatchBlockedOrder reads.
// Each subproblem of level l declares bytes/b^l bytes of working set, summed
// over the batch the way the real algorithms declare theirs. Divides have
// range bodies, the base case and the combines per-task ones.
type orderAlg struct {
	a, b, L int
	bytes   int64 // declared working set of the root subproblem
	log     []orderStep
}

type orderStep struct {
	phase       byte // 'd', 'b' or 'c'
	level, task int
}

func (o *orderAlg) Name() string { return "order" }
func (o *orderAlg) Arity() int   { return o.a }
func (o *orderAlg) Shrink() int  { return o.b }
func (o *orderAlg) N() int       { return TasksAtLevel(o.b, o.L) }
func (o *orderAlg) Levels() int  { return o.L }

func (o *orderAlg) batch(phase byte, level, lo, hi int) Batch {
	b := Batch{Tasks: hi - lo, Cost: Cost{Ops: 1,
		WorkingSet: int64(hi-lo) * (o.bytes / int64(TasksAtLevel(o.b, level)))}}
	if phase == 'd' {
		b.RunRange = func(from, to int) {
			for i := from; i < to; i++ {
				o.log = append(o.log, orderStep{phase, level, lo + i})
			}
		}
		return b
	}
	b.Run = func(i int) { o.log = append(o.log, orderStep{phase, level, lo + i}) }
	return b
}

func (o *orderAlg) DivideBatch(level, lo, hi int) Batch  { return o.batch('d', level, lo, hi) }
func (o *orderAlg) BaseBatch(lo, hi int) Batch           { return o.batch('b', o.L, lo, hi) }
func (o *orderAlg) CombineBatch(level, lo, hi int) Batch { return o.batch('c', level, lo, hi) }

// blockedOrder is the specification CoarseBatch's task is held to, written
// as the recursion it flattens: subtree root (level, task), blocks rooted d
// levels further down. Above the block roots it is level by level — divides
// of the whole subtree, then the blocks left to right, then combines of the
// whole subtree — and a block is level by level in itself.
func blockedOrder(o *orderAlg, level, task, d int) []orderStep {
	var steps []orderStep
	span := func(phase byte, depth int) {
		f := TasksAtLevel(o.a, depth)
		for i := task * f; i < (task+1)*f; i++ {
			steps = append(steps, orderStep{phase, level + depth, i})
		}
	}
	depthTo := o.L - level // the leaves
	if d > 0 {
		depthTo = d
	}
	for t := 0; t < depthTo; t++ {
		span('d', t)
	}
	if d > 0 {
		blocks := TasksAtLevel(o.a, d)
		for k := task * blocks; k < (task+1)*blocks; k++ {
			steps = append(steps, blockedOrder(o, level+d, k, 0)...)
		}
	} else {
		span('b', depthTo)
	}
	for t := depthTo - 1; t >= 0; t-- {
		span('c', t)
	}
	return steps
}

// TestCoarseBatchBlockedOrder proves the order of work inside one coarse
// task: the divides above the block depth, then the blocks in ascending
// order, each complete before the next begins, then the combines above the
// block depth — and the plain level-by-level order when the subtree declares
// no working set or already fits a block.
func TestCoarseBatchBlockedOrder(t *testing.T) {
	const kib = 1 << 10
	cases := []struct {
		name        string
		a, b, L, cl int
		subtree     int64 // declared bytes of one coarse subtree
		wantDepth   int
	}{
		{"no-working-set", 2, 2, 5, 1, 0, 0},
		{"fits-one-block", 2, 2, 5, 1, blockBytes, 0},
		{"just-over", 2, 2, 5, 1, blockBytes + 2, 1},
		{"four-blocks", 2, 2, 5, 1, 4 * blockBytes, 2},
		// Three subproblems of half the size each: a level declares 3/2 of
		// the one above, so the subtree's working set is its leaf level's,
		// 27/8 of its root's, and a quarter of that fits.
		{"arity-3-shrink-2", 3, 2, 4, 1, blockBytes, 2},
		{"blocks-are-leaves", 2, 2, 3, 1, 1 << 30, 2},
		{"root-coarse", 2, 2, 4, 0, 8 * blockBytes, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := &orderAlg{a: c.a, b: c.b, L: c.L, bytes: c.subtree * int64(TasksAtLevel(c.b, c.cl))}
			w := TasksAtLevel(c.a, c.cl)
			cb := CoarseBatch(o, c.cl, 0, w, nil, true)
			if len(o.log) != 0 {
				t.Fatal("constructing the coarse batch ran tasks")
			}
			// Out of index order, to show a task's order is its own.
			for j := w - 1; j >= 0; j-- {
				o.log = o.log[:0]
				cb.Each(j, j+1)
				want := blockedOrder(o, c.cl, j, c.wantDepth)
				if len(o.log) != len(want) {
					t.Fatalf("task %d ran %d steps, want %d", j, len(o.log), len(want))
				}
				for i := range want {
					if o.log[i] != want[i] {
						t.Fatalf("task %d step %d = %c level %d task %d, want %c level %d task %d", j, i,
							o.log[i].phase, o.log[i].level, o.log[i].task, want[i].phase, want[i].level, want[i].task)
					}
				}
			}
		})
	}
}
