package core

// Leaf coarsening (DESIGN.md §11): near the leaves a breadth-first level
// holds a^l tiny tasks, and per-task scheduling overhead dominates the
// useful work. A grain of n collapses the bottom k = ⌊log_a(n)⌋ internal
// levels of the CPU portion into ONE batch whose task j executes the whole
// subtree rooted at coarse level cl = L−k depth-first in place: divide
// levels cl..L−1, the base case, and combine levels L−1..cl, restricted to
// subtree j's contiguous index ranges. The result is bit-identical to the
// level-by-level execution because subproblems at each level are indexed
// contiguously (the Alg contract), so distinct subtrees touch disjoint data
// and within a subtree the phase order (divide top-down, base, combine
// bottom-up) is preserved along every root-to-leaf path — all the data
// dependences there are, so a task may also run one cache block at a time.
//
// Coarsening applies only to CPU-side batches, whose constructors are pure
// (the Alg contract: the interpreter of plan.go already calls them beside
// device-side ones, in no fixed order between chains); GPU batch
// constructors may be stateful (layout transforms) and are never coarsened.

// GrainAuto selects the leaf-coarsening grain automatically: the largest
// collapse that still leaves at least 4·p coarse subtrees, so every CPU
// worker keeps several steals' worth of slack.
const GrainAuto = -1

// autoGrainSlack is the minimum number of coarse subtrees per CPU worker
// that GrainAuto preserves.
const autoGrainSlack = 4

// WithGrain sets the leaf-coarsening grain for the run's CPU portion: the
// bottom ⌊log_a(n)⌋ breadth-first levels collapse into one depth-first
// coarse chunk per subtree (at most n leaves each). 0 or 1 runs every level;
// GrainAuto, the default on an autonomous backend, picks the largest grain
// that keeps all CPU workers busy. Results are bit-identical for any grain.
// The executors with a CPU leaf phase honour it — breadth-first CPU, and the
// CPU portion of the advanced hybrid and of its multi-device form, floored
// at the split level; the others (sequential, basic hybrid, GPU-only,
// fused) accept and ignore the option.
func WithGrain(n int) Option {
	return func(c *RunConfig) {
		c.Grain = max(n, 1) // 0 is "unset"
		if n < 0 {
			c.Grain = GrainAuto
		}
	}
}

// coarseLevels resolves the configured grain to k, the number of bottom
// internal levels to collapse. L is the total internal level count, floor
// the lowest level the coarse root may reach (0 for CPU-only runs, the
// split level for the advanced hybrid's CPU portion), and tasksAt(cl) the
// number of CPU-owned subtrees rooted at level cl (used by GrainAuto to
// preserve parallel slack of autoGrainSlack·p).
func coarseLevels(grain, a, L, floor, p int, tasksAt func(cl int) int) int {
	maxK := L - floor
	if maxK < 0 {
		maxK = 0
	}
	switch {
	case grain == 0 || grain == 1:
		return 0
	case grain == GrainAuto:
		k := 0
		for k < maxK && tasksAt(L-k-1) >= autoGrainSlack*p {
			k++
		}
		return k
	default:
		k, leaves := 0, 1
		for k < maxK && leaves*a <= grain {
			k++
			leaves *= a
		}
		return k
	}
}

// blockBytes is the cache block of a coarse task (DESIGN.md §11), chosen by
// the sweep in EXPERIMENTS.md (PR 23); not an option.
const blockBytes = 32 << 10

// BlockDepth is the depth d of a coarse task's cache blocks: the first depth
// at which a sub-subtree's bytes — a subtree's working set ws, divided by
// shrink per level — fit blockBytes, and at most K, the subtree's depth. A
// Solver whose kernel runs in blocks derives them here too, so that a Solve
// touches memory in the order the walk it replaces would.
func BlockDepth(ws int64, shrink, K int) int {
	d := 0
	for ; ws > blockBytes && d < K; ws /= int64(shrink) {
		d++
	}
	return d
}

// CoarseBatch builds the coarse batch for subtrees [lo, hi) rooted at level
// cl of alg's recursion tree: task j executes subtree lo+j completely and in
// place — divide levels cl..Levels()−1, the base case, then combine levels
// Levels()−1..cl — over the subtree's contiguous index ranges. Per-task Cost
// aggregates the per-level CPU costs of one subtree. The per-level batches
// are all constructed here, before any of them runs, which the Alg contract
// allows: CPU batch constructors are pure.
//
// Inside one task the order is blocked: with d the BlockDepth of the
// subtree's declared WorkingSet, the task runs the divides of depths < d
// over the whole subtree, then its a^d sub-subtrees in index order, each
// from its divides to its combines, then the combines of depths < d. A
// subtree that fits a block, or declares no WorkingSet, is one block: the
// level-by-level order.
//
// A walk stops at its next phase boundary once stop is closed (a nil stop
// never closes), which leaves the subtree incomplete: the run it belongs to
// is then partial. An alg that is a Solver is not walked: task j is
// Solve(cl, lo+j, stop), and the level batches only price it — when priced
// says a clock reads the batch's Cost. Unpriced (an autonomous backend),
// a Solver's batch is built without its levels and its Cost is zero, which
// its Interval shows as Ops 0.
func CoarseBatch(alg Alg, cl, lo, hi int, stop <-chan struct{}, priced bool) Batch {
	L := alg.Levels()
	a := alg.Arity()
	w := hi - lo
	if w <= 0 {
		return Batch{}
	}
	solver, direct := alg.(Solver)
	if direct && !priced {
		return Batch{Tasks: w, Level: cl, Run: func(j int) { solver.Solve(cl, lo+j, stop) }}
	}
	// A phase is the (range-relative) body of one level's batch over the
	// coarse range, nil for a level without work. In execution order:
	// phases[i] is the divide of depth i for i < K, the base case for i = K,
	// the combine of depth 2K−i after it; depth t has a^t tasks per subtree.
	type phase struct {
		run func(i int)
		rng func(lo, hi int)
	}
	K := L - cl
	var phases []phase
	if !direct {
		phases = make([]phase, 0, 2*K+1)
	}
	var perTask Cost
	add := func(b Batch, f int) {
		if !direct {
			phases = append(phases, phase{b.Run, b.RunRange})
		}
		if b.Empty() {
			return
		}
		perTask.Ops += b.Cost.Ops * float64(f)
		perTask.MemWords += b.Cost.MemWords * float64(f)
		if b.Cost.WorkingSet > perTask.WorkingSet {
			perTask.WorkingSet = b.Cost.WorkingSet
		}
	}
	for l := cl; l < L; l++ {
		f := TasksAtLevel(a, l-cl)
		add(alg.DivideBatch(l, lo*f, hi*f), f)
	}
	fL := TasksAtLevel(a, K)
	add(alg.BaseBatch(lo*fL, hi*fL), fL)
	for l := L - 1; l >= cl; l-- {
		f := TasksAtLevel(a, l-cl)
		add(alg.CombineBatch(l, lo*f, hi*f), f)
	}
	if direct {
		return Batch{Tasks: w, Cost: perTask, Level: cl, Run: func(j int) { solver.Solve(cl, lo+j, stop) }}
	}
	d := BlockDepth(perTask.WorkingSet/int64(w), alg.Shrink(), K)
	blocks := TasksAtLevel(a, d)
	return Batch{
		Tasks: w,
		Cost:  perTask,
		Level: cl,
		Run: func(j int) {
			// part runs phases[from:to] for the k-th of the sub-subtrees
			// that have f tasks each in phases[from], up to the first phase
			// that finds stop closed; every later part then stops at its
			// first.
			part := func(from, to, k, f int) {
				for i := from; i < to; i++ {
					if stop != nil {
						select {
						case <-stop:
							return
						default:
						}
					}
					each(phases[i].run, phases[i].rng, k*f, (k+1)*f)
					if i < K {
						f *= a
					} else {
						f /= a
					}
				}
			}
			n := len(phases)
			part(0, d, j, 1)
			for k := j * blocks; k < (j+1)*blocks; k++ {
				part(d, n-d, k, 1)
			}
			part(n-d, n, j, blocks/a)
		},
	}
}
