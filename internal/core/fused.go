package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dcerr"
	"repro/internal/mempool"
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
// fusion trades per-job cancellation granularity for launch amortization).
//
// With WithCoalesce, members implementing Transformable get the §6.3 layout
// switch fused too: one permute launch before the base phase per chunk, and
// one permute-back launch per group of members finishing the same step.
func RunFusedGPUCtx(ctx context.Context, be Backend, algs []GPUAlg, opts ...Option) ([]Report, error) {
	be, cfg, err := open(be, opts)
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
	reports := make([]Report, n) // returned to the caller: never pooled
	// Per-run scratch is leased from the pool and handed back after the
	// chain has fully retired (every element is written before any read).
	depth := mempool.Ints.Get(n)   // L_m
	leaves := mempool.Ints.Get(n)  // a^L_m
	bytes := mempool.Int64s.Get(n) // whole-instance transfer size
	chunkOf := mempool.Ints.Get(n) // transfer chunk index of each member
	rootAt := mempool.Float64s.Get(n)
	defer func() {
		mempool.Ints.Put(depth)
		mempool.Ints.Put(leaves)
		mempool.Int64s.Put(bytes)
		mempool.Ints.Put(chunkOf)
		mempool.Float64s.Put(rootAt)
	}()
	maxL := 0
	for m, alg := range algs {
		reports[m] = Report{Algorithm: alg.Name(), Strategy: FusedStrategy}
		depth[m] = alg.Levels()
		leaves[m] = TasksAtLevel(alg.Arity(), depth[m])
		bytes[m] = alg.GPUBytes(0, 0, 1)
		if depth[m] > maxL {
			maxL = depth[m]
		}
	}
	chunks := fusedChunks(bytes, chunkOf)

	gpu := be.GPU()
	start := be.Now()

	// Device staging: one leased segment per member, acquired with its
	// chunk's upload and released as its result leaves the device, so the
	// next fused run of the same shape reuses the device residency
	// instead of re-staging per group.
	sa := segmentAllocator(be)
	segs := make([]*Segment, n)
	defer func() {
		// Safety net for canceled runs; Release is idempotent.
		for _, s := range segs {
			s.Release()
		}
	}()

	// Completion accounting: every concurrently progressing branch of the
	// pipeline (a chunk's upload+pre chain, the combine chain, each egress
	// transfer) holds one reference; done closes when the last one drops.
	// Stamps and the canceled flag are guarded by mu because the native
	// backend fires completions from many goroutines.
	var (
		mu          sync.Mutex
		canceled    bool
		outstanding atomic.Int64
		done        = make(chan struct{})
	)
	// deviceStart[c] is stamped during chunk c's ingest, and every read
	// (member egress) happens after the all-chunks-resident barrier, so
	// the pooled slice's unspecified contents never surface; rootAt[m] is
	// likewise stamped before the only read.
	deviceStart := mempool.Float64s.Get(len(chunks))
	defer func() { mempool.Float64s.Put(deviceStart) }()
	release := func() {
		if outstanding.Add(-1) == 0 {
			close(done)
		}
	}
	hold := func() { outstanding.Add(1) }
	markCanceled := func() {
		mu.Lock()
		canceled = true
		mu.Unlock()
	}

	// fuse builds the single launch for one aligned step from the member
	// batch constructor; construction is lazy (inside the step) because a
	// preceding permute may change a member's device layout state.
	fuse := func(members []int, part func(m int) Batch) Batch {
		parts := make([]Batch, 0, len(members))
		for _, m := range members {
			parts = append(parts, part(m))
		}
		return fuseBatches(parts)
	}

	// Combine phase, shared by every member once resident. advance(t) runs
	// after t fused combine steps have completed.
	var advance func(t int)
	advance = func(t int) {
		if ctx.Err() != nil {
			markCanceled()
			release()
			return
		}
		// Members whose root completed at this step: permute back (fused),
		// then start their egress transfer, overlapping deeper members'
		// remaining combines.
		var fin []int
		for m := range algs {
			if depth[m] == t {
				fin = append(fin, m)
			}
		}
		proceed := func() {
			if len(fin) > 0 {
				now := be.Now()
				var sum int64
				mu.Lock()
				for _, m := range fin {
					rootAt[m] = now
					sum += bytes[m]
				}
				mu.Unlock()
				hold()
				group := fin
				be.TransferToCPU(sum, func() {
					end := be.Now()
					mu.Lock()
					for _, m := range group {
						reports[m].Seconds = end - start
						reports[m].GPUPortionSeconds = rootAt[m] - deviceStart[chunkOf[m]]
					}
					mu.Unlock()
					for _, m := range group {
						segs[m].Release()
					}
					release()
				})
			}
			if t == maxL {
				release() // combine chain ends
				return
			}
			b := fuse(activeAt(depth, t), func(m int) Batch {
				lvl := depth[m] - 1 - t
				return atLevel(algs[m].GPUCombineBatch(lvl, 0, TasksAtLevel(algs[m].Arity(), lvl)), lvl)
			})
			gpu.Submit(b, func() { advance(t + 1) })
		}
		if cfg.Coalesce && len(fin) > 0 {
			pb := fuse(fin, func(m int) Batch {
				if tr, ok := algs[m].(Transformable); ok {
					return tr.PermuteBack(0, 0, 1)
				}
				return Batch{}
			})
			gpu.Submit(pb, proceed)
			return
		}
		proceed()
	}

	barrier := Join(len(chunks), func() {
		hold()
		advance(0)
	})

	// Ingest: chunk c's upload, then its device-resident divide and base
	// phases, with chunk c+1's upload forked as soon as the link frees —
	// the double-buffered pipeline. ingest(t) runs after t of the chunk's
	// ingest steps have completed: lease, upload, stamp-and-fork, one fused
	// divide per level of the chunk's deepest member, permute, base.
	var startChunk func(c int)
	startChunk = func(c int) {
		members := chunks[c]
		maxLc := 0
		var sum int64
		for _, m := range members {
			maxLc = max(maxLc, depth[m])
			sum += bytes[m]
		}
		var ingest func(t int)
		ingest = func(t int) {
			if ctx.Err() != nil {
				markCanceled()
				release()
				return
			}
			next := func() { ingest(t + 1) }
			switch d := t - 3; { // d: divide level of the deepest member
			case t == 0:
				if sa != nil {
					for _, m := range members {
						segs[m] = sa.AllocSegment(bytes[m])
					}
				}
				next()
			case t == 1:
				be.TransferToGPU(sum, next)
			case t == 2:
				mu.Lock()
				deviceStart[c] = be.Now()
				mu.Unlock()
				if c+1 < len(chunks) {
					hold()
					startChunk(c + 1)
				}
				next()
			case d < maxLc:
				gpu.Submit(fuse(members, func(m int) Batch {
					lvl := d - (maxLc - depth[m])
					if lvl < 0 {
						return Batch{}
					}
					return atLevel(algs[m].GPUDivideBatch(lvl, 0, TasksAtLevel(algs[m].Arity(), lvl)), lvl)
				}), next)
			case d == maxLc && cfg.Coalesce:
				gpu.Submit(fuse(members, func(m int) Batch {
					if tr, ok := algs[m].(Transformable); ok {
						return atLevel(tr.PermuteForGPU(depth[m], 0, leaves[m]), depth[m])
					}
					return Batch{}
				}), next)
			case d == maxLc:
				next()
			case d == maxLc+1:
				gpu.Submit(fuse(members, func(m int) Batch {
					return atLevel(algs[m].GPUBaseBatch(0, leaves[m]), depth[m])
				}), next)
			default:
				barrier()
				release()
			}
		}
		ingest(0)
	}

	hold()
	startChunk(0)
	awaitChain(be, done)

	makespan := be.Now() - start
	if mb, ok := be.(*meteredBackend); ok {
		mb.finish(makespan)
	}
	if canceled {
		for m := range reports {
			reports[m].Partial = true
			reports[m].Seconds = makespan
		}
		err = canceledErr(ctx, algs[0], FusedStrategy)
	} else {
		for _, alg := range algs {
			finish(alg)
		}
	}
	if cfg.Observe != nil {
		for m := range reports {
			cfg.Observe(&reports[m])
		}
	}
	return reports, err
}

// atLevel stamps the batch with its recursion level for observability
// layers (trace spans, per-level metrics).
func atLevel(b Batch, l int) Batch {
	b.Level = l
	return b
}

// activeAt returns the members still combining after t completed steps.
func activeAt(depth []int, t int) []int {
	var out []int
	for m, d := range depth {
		if d > t {
			out = append(out, m)
		}
	}
	return out
}

// fusedChunks partitions member indices into two transfer chunks of roughly
// equal byte volume (one chunk for a single member), preserving order, and
// records each member's chunk index.
func fusedChunks(bytes []int64, chunkOf []int) [][]int {
	n := len(bytes)
	if n == 1 {
		chunkOf[0] = 0
		return [][]int{{0}}
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
	chunks := [][]int{make([]int, 0, cut), make([]int, 0, n-cut)}
	for i := 0; i < n; i++ {
		c := 0
		if i >= cut {
			c = 1
		}
		chunkOf[i] = c
		chunks[c] = append(chunks[c], i)
	}
	return chunks
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
