package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dcerr"
)

// FusedStrategy is the Report.Strategy stamped on every member of a fused
// execution.
const FusedStrategy = "fused-gpu"

// RunFusedGPUCtx executes several independent GPU-resident jobs as ONE
// breadth-first execution, generalizing the paper's batching argument (§4,
// Algorithm 3) from "one kernel launch per level of one job" to "one kernel
// launch per level across many jobs". Each member algorithm keeps its own
// data (its segment); segments never merge past their own root, so the
// per-job results are bit-identical to N independent RunGPUOnlyCtx runs.
//
// Execution pipelines the host↔device traffic the way the paper's advanced
// scheme (§5.2) hides its single round trip behind concurrent work:
//
//   - Members are grouped into transfer chunks (two, for double buffering).
//     Chunk k+1 uploads over the link while chunk k's device-resident divide
//     and base phases run, so ingest overlaps compute.
//   - Once every segment is resident, the combine phase walks the recursion
//     trees leaf-aligned: at step t, one fused kernel launch executes level
//     L_m-1-t of every member m that is still combining. Members of equal
//     subproblem size therefore share a launch regardless of their depth.
//   - A member's root completes after L_m steps; its result transfers back
//     immediately, overlapping the remaining combine steps of deeper
//     members (egress pipelining).
//
// WithGrain is accepted but has no effect: the fused execution is entirely
// device-resident, and leaf coarsening applies only to CPU-side phases.
//
// Fusing amortizes both the per-launch overhead (the launch-dominated small
// input regime of §6) and the per-transfer latency λ: k same-size jobs pay
// one launch per level and O(chunks) λ terms instead of k of each.
//
// The returned slice has one Report per member, stamped FusedStrategy:
// Seconds is the member's own completion offset (its result back on the
// host) from the fused start, and GPUPortionSeconds the device-resident
// time of its chunk. ctx is checked at every fused level boundary; on
// cancellation every member's Report is Partial and the single returned
// error wraps dcerr.ErrCanceled (member data validity is all-or-nothing:
// fusion trades per-job cancellation granularity for launch amortization),
// and likewise under dcerr.ErrDeviceFault when a Faulter layer of the
// backend recorded a device fault during the run.
//
// With WithCoalesce, members implementing Transformable get the §6.3 layout
// switch fused too: one permute launch before the base phase per chunk, and
// one permute-back launch per group of members finishing the same step.
func RunFusedGPUCtx(ctx context.Context, be Backend, algs []GPUAlg, opts ...Option) ([]Report, error) {
	cfg, err := open(be, opts)
	if err != nil {
		return nil, err
	}
	if len(algs) == 0 {
		return nil, fmt.Errorf("core: fused run with no members: %w", dcerr.ErrBadParam)
	}
	for i, alg := range algs {
		if alg == nil {
			return nil, fmt.Errorf("core: fused member %d is nil: %w", i, dcerr.ErrBadParam)
		}
	}
	if be.GPU() == nil {
		return nil, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	n := len(algs)
	reports := make([]Report, n)
	bytes := make([]int64, n) // whole-instance transfer size
	ints := make([]int, 3*n)
	depth, chunkOf, home := ints[:n], ints[n:2*n], ints[2*n:] // L_m; each member's chunk chain and egress chain
	f := newForest(algs, depth)
	for m, alg := range algs {
		reports[m] = Report{Algorithm: alg.Name(), Strategy: FusedStrategy}
		bytes[m] = alg.GPUBytes(0, 0, 1)
	}

	// The plan. Chains, in index order: one per transfer chunk; the combine
	// chain; one egress chain per group of members of equal depth, whose
	// roots complete at the same combine step and go home together.
	bounds, chunks := fusedChunks(bytes, chunkOf)
	groups := 0
	for m := range algs {
		if p := slices.Index(depth[:m], depth[m]); p >= 0 {
			home[m] = home[p]
		} else {
			home[m] = chunks + 1 + groups
			groups++
		}
	}
	r := newRun(ctx, be, &cfg, f, f)
	r.forest = true
	gpu := be.GPU()
	r.chains = make([]chain, chunks+1+groups)
	combine := &r.chains[chunks]
	// A chunk is its upload, a stamp and a fork, at most L divides, a
	// permute and the leaves; an egress chain three ops.
	r.ops = make([]op, 0, chunks*(f.L+5)+3*groups)

	// Ingest: chunk c is the stripe [lo, hi) of the forest. Its fork comes the
	// moment it is resident, before its own first divide is submitted: chunk
	// c+1's upload crosses the link while c's divide and base phases run.
	// Its divides begin at the level of its own deepest member.
	for c := range chunks {
		ch, lo, hi := &r.chains[c], bounds[c], bounds[c+1]
		ch.dev, ch.bytes, ch.then = gpu, f.GPUBytes(0, lo, hi), combine
		at := len(r.ops)
		r.ops = append(r.ops, op{kind: opUpload}, op{kind: opStamp, level: stampResident})
		if c+1 < chunks {
			r.ops = append(r.ops, op{kind: opFork, lo: c + 1, hi: c + 2})
		}
		r.descend(f.L-slices.Max(depth[lo:hi]), 0, lo, hi)
		ch.ops = r.ops[at:]
	}

	// Combine: the join of the chunks, over the whole forest. After d steps
	// the group of depth d is complete: one fused permute back, then the fork
	// of its egress chain — root, download, home — before the next combine
	// launch is submitted, so its way home overlaps the rest.
	combine.dev = gpu
	combine.waits.Store(int32(chunks))
	combine.ops = make([]op, 0, f.L+2*groups)
	for d := 0; d <= f.L; d++ {
		if m := slices.Index(depth, d); m >= 0 {
			if r.tr != nil {
				combine.ops = append(combine.ops, op{opPermuteBack, f.L - d, 0, n})
			}
			combine.ops = append(combine.ops, op{kind: opFork, lo: home[m], hi: home[m] + 1})
			eg, at := &r.chains[home[m]], len(r.ops)
			r.ops = append(r.ops, op{kind: opStamp, level: stampRoot}, op{kind: opDownload}, op{kind: opStamp, level: stampHome})
			for ; m < n; m++ {
				if depth[m] != d {
					continue
				}
				eg.bytes += bytes[m]
			}
			eg.ops = r.ops[at:]
		}
		if d < f.L {
			combine.ops = append(combine.ops, op{opGPUCombine, f.L - 1 - d, 0, n})
		}
	}

	r.drive(&r.chains[0])

	// A member is home when its group's download has landed; its device time
	// runs from its chunk's residency to its own root.
	for m := range reports {
		eg := &r.chains[home[m]]
		reports[m].Seconds = since(eg.stamps[stampHome], r.start)
		reports[m].GPUPortionSeconds = since(eg.stamps[stampRoot], r.chains[chunkOf[m]].stamps[stampResident])
	}
	return reports, r.settle(&cfg, reports)
}

// forest presents k independent recursion trees as one GPUAlg (and
// Transformable), so that a fused group is planned and interpreted like a
// single tree. Two things make it one algorithm:
//
//   - Its subproblem ranges count trees: [lo, hi) of any level is trees
//     lo..hi−1, each over its whole level (Arity is 1 — a forest does not
//     widen with depth). A transfer chunk is a contiguous stripe of trees.
//   - Its levels are leaf-aligned: forest level l is level l − (L − depth[t])
//     of tree t, which is absent from the level while that is negative, so
//     trees of equal subproblem size share a launch whatever their depth,
//     and a tree's root is at forest level L − depth[t].
//
// A constructor builds the member batches in tree order at the moment it is
// called, like any other algorithm's (plan.go), and fuses them into one
// launch; the launch keeps the level fuseBatches stamped on it.
type forest struct {
	trees   []GPUAlg
	kernels []DeviceKernels // each tree's own device kernels, or nil: its CPU batches run on the device
	depth   []int           // Levels() of each tree
	L       int             // the deepest
	parts   []Batch         // fuseBatches' input, one window per tree range: ranges in flight together are disjoint
}

// newForest is the forest of algs, filling in depth: each tree's depth and
// device kernels are resolved once, not per launch.
func newForest(algs []GPUAlg, depth []int) *forest {
	f := &forest{trees: algs, kernels: make([]DeviceKernels, len(algs)), depth: depth, parts: make([]Batch, len(algs))}
	for t, alg := range algs {
		depth[t] = alg.Levels()
		f.L = max(f.L, depth[t])
		f.kernels[t], _ = alg.(DeviceKernels)
	}
	return f
}

// level is the one launch of forest level l over trees [lo, hi): the batch of
// kind over the whole of each present tree's own level, fused. A permute
// takes only the Transformable trees, a permute back only those whose root
// is at l: those whose result is complete there.
func (f *forest) level(kind opKind, l, lo, hi int) Batch {
	parts := f.parts[lo:hi]
	for i := range parts {
		t, own := lo+i, l-(f.L-f.depth[lo+i])
		parts[i] = Batch{}
		if own >= 0 {
			parts[i] = f.tree(kind, t, own)
			parts[i].Level = own
		}
	}
	return fuseBatches(parts)
}

// tree is tree t's batch of kind over the whole of its own level.
func (f *forest) tree(kind opKind, t, own int) Batch {
	alg := f.trees[t]
	hi := TasksAtLevel(alg.Arity(), own)
	if kind == opPermute || kind == opPermuteBack {
		tr, ok := alg.(Transformable)
		switch {
		case ok && kind == opPermute:
			return tr.PermuteForGPU(own, 0, hi)
		case ok && own == 0:
			return tr.PermuteBack(own, 0, hi)
		}
		return Batch{}
	}
	return construct(alg, f.kernels[t], kind, own, 0, hi)
}

// Name is the first tree's: a fused run's error names the group by it. As an
// Alg the forest is N trees wide at every level.
func (f *forest) Name() string { return f.trees[0].Name() }
func (f *forest) Arity() int   { return 1 }
func (f *forest) Shrink() int  { return 1 }
func (f *forest) N() int       { return len(f.trees) }
func (f *forest) Levels() int  { return f.L }

// Finish implements Finisher: it finishes every tree.
func (f *forest) Finish() {
	for _, t := range f.trees {
		finish(t)
	}
}

// GPUBytes is the link footprint of trees [lo, hi), whole.
func (f *forest) GPUBytes(_, lo, hi int) int64 {
	var sum int64
	for _, t := range f.trees[lo:hi] {
		sum += t.GPUBytes(0, 0, 1)
	}
	return sum
}

// The forest's own device kernels run each tree's, or its CPU batches when it
// has none, so a mixed group keeps every member's kernels.
func (f *forest) GPUDivideBatch(l, lo, hi int) Batch  { return f.level(opGPUDivide, l, lo, hi) }
func (f *forest) GPUBaseBatch(lo, hi int) Batch       { return f.level(opGPUBase, f.L, lo, hi) }
func (f *forest) GPUCombineBatch(l, lo, hi int) Batch { return f.level(opGPUCombine, l, lo, hi) }

// The CPU constructors complete the interface the same way; no executor
// runs a forest on the CPU.
func (f *forest) DivideBatch(l, lo, hi int) Batch  { return f.level(opDivide, l, lo, hi) }
func (f *forest) BaseBatch(lo, hi int) Batch       { return f.level(opBase, f.L, lo, hi) }
func (f *forest) CombineBatch(l, lo, hi int) Batch { return f.level(opCombine, l, lo, hi) }

// PermuteForGPU switches the Transformable trees of [lo, hi) to the device
// layout; the others take no part in the launch.
func (f *forest) PermuteForGPU(l, lo, hi int) Batch { return f.level(opPermute, l, lo, hi) }

// PermuteBack restores the host layout of the trees of [lo, hi) whose root
// is at forest level l.
func (f *forest) PermuteBack(l, lo, hi int) Batch { return f.level(opPermuteBack, l, lo, hi) }

// fusedChunks partitions the members into k transfer chunks, two of roughly
// equal byte volume (one for a single member), preserving order: chunk c is
// members [bounds[c], bounds[c+1]). It records each member's chunk index.
func fusedChunks(bytes []int64, chunkOf []int) (bounds [3]int, k int) {
	n := len(bytes)
	if n == 1 {
		chunkOf[0] = 0
		return [3]int{0, 1, 1}, 1
	}
	var total int64
	for _, b := range bytes {
		total += b
	}
	var acc int64
	cut := n - 1 // at least one member in the second chunk
	for i := 0; i < n-1; i++ {
		acc += bytes[i]
		if 2*acc >= total {
			cut = i + 1
			break
		}
	}
	for i := range chunkOf {
		chunkOf[i] = 0
		if i >= cut {
			chunkOf[i] = 1
		}
	}
	return [3]int{0, cut, n}, 2
}

// fuseBatches merges per-member batches for one aligned recursion step into
// a single batch (one kernel launch). Task indices are concatenated in
// member order and dispatched back to the owning member's Run, so the fused
// launch performs exactly the member launches' work. Costs merge
// conservatively: coalesced only if every part is, divergent if any part
// is, and heterogeneous per-item op counts (or parts with unequal uniform
// costs) become a fused CostOps so SIMD wavefront pricing still sees every
// item.
func fuseBatches(parts []Batch) Batch {
	live := parts[:0]
	for _, p := range parts {
		if !p.Empty() {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return Batch{}
	}
	if len(live) == 1 {
		return live[0]
	}

	offsets := make([]int, len(live)+1)
	uniform := true
	het := false
	first := live[0].Cost
	var totalOps, totalWS float64
	anyRun := false
	level := 0
	for i, p := range live {
		offsets[i+1] = offsets[i] + p.Tasks
		if p.CostOps != nil {
			het = true
		}
		if p.Cost.Ops != first.Ops || p.Cost.MemWords != first.MemWords {
			uniform = false
		}
		totalOps += float64(p.Tasks) * p.Cost.Ops
		totalWS += float64(p.Cost.WorkingSet)
		if p.Run != nil || p.RunRange != nil {
			anyRun = true
		}
		if p.Level > level {
			level = p.Level
		}
	}
	total := offsets[len(live)]

	cost := first
	cost.Ops = totalOps / float64(total)
	cost.WorkingSet = int64(totalWS)
	for _, p := range live {
		if !p.Cost.Coalesced {
			cost.Coalesced = false
		}
		if p.Cost.Divergent {
			cost.Divergent = true
		}
		if p.Cost.MemWords > cost.MemWords {
			cost.MemWords = p.Cost.MemWords
		}
	}

	owner := func(i int) (Batch, int) {
		k := sort.Search(len(offsets), func(j int) bool { return offsets[j] > i }) - 1
		return live[k], i - offsets[k]
	}
	out := Batch{Tasks: total, Cost: cost, Level: level}
	if anyRun {
		// A range of the fused batch is a run of member ranges.
		out.RunRange = func(lo, hi int) {
			for lo < hi {
				p, j := owner(lo)
				n := p.Tasks - j
				if n > hi-lo {
					n = hi - lo
				}
				p.Each(j, j+n)
				lo += n
			}
		}
	}
	if het || !uniform {
		out.CostOps = func(i int) float64 {
			p, j := owner(i)
			if p.CostOps != nil {
				return p.CostOps(j)
			}
			return p.Cost.Ops
		}
	}
	return out
}
