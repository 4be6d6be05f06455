package core

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Execution plans (DESIGN.md §11b). Every executor in this package is one
// parameterisation of the paper's Algorithm 8: divide full width down to a
// split level s, give the CPU the subproblems [0, cpu) of that level and
// stripe the rest over the devices, bring each stripe home at the transfer
// level y, combine full width back to the root. The schedule is data — a
// chain is a []op — built by two phase builders and walked by one
// interpreter.

// opKind says what an op asks of the platform. The kinds before opGPUDivide
// are CPU batches, opGPUDivide..opPermuteBack are device batches.
type opKind uint8

const (
	opDivide  opKind = iota // Alg.DivideBatch(level, lo, hi)
	opBase                  // Alg.BaseBatch(lo, hi)
	opCombine               // Alg.CombineBatch(level, lo, hi)
	opCoarse                // CoarseBatch rooted at level (grain.go)
	opGPUDivide
	opGPUBase
	opGPUCombine
	opPermute     // Transformable.PermuteForGPU(level, lo, hi)
	opPermuteBack // Transformable.PermuteBack(level, lo, hi)
	opLease       // lease a device segment for the chain's footprint
	opUpload      // host→device transfer of the chain's footprint
	opDownload    // device→host transfer of the same bytes
	opStamp       // record Now() in the chain's stamps[level]
)

// The three stamps of a device chain; every strategy's portion times are
// differences of these, the fork time and the chain ends.
const (
	stampResident = iota // the upload has landed
	stampRoot            // the device-side result is complete (before the download)
	stampHome            // the download has landed
)

// op is one stage of a chain: a kind and the subproblem range [lo, hi) of a
// level it applies to. An op holds no batch: the batch is constructed when
// the op executes, in chain order, because Transformable constructors
// mutate the algorithm's layout state themselves (PermuteForGPU registers
// the region, GPUCombineBatch advances it) and the next constructor must
// see that state.
type op struct {
	kind          opKind
	level, lo, hi int
}

// chain is a cursor over a sequence of ops that execute one after another,
// each submitted when the previous one completes.
type chain struct {
	run  *run
	ops  []op
	pc   int
	next func() // c.advance, bound once: the chain's only completion callback
	end  float64

	// Device chains only.
	dev    LevelExecutor
	bytes  int64 // link footprint: GPUBytes of the stripe at the split level
	seg    *Segment
	stamps [3]float64
}

// run sequences one execution: top chain, then the forked portions (the CPU
// portion and one chain per device stripe), their join, then the tail chain.
type run struct {
	ctx        context.Context
	cancelable bool
	be         Backend
	alg        Alg
	galg       GPUAlg           // nil when the division has no devices
	tr         Transformable    // non-nil only under WithCoalesce
	sa         SegmentAllocator // nil when the backend does not pool device memory
	a, L       int
	fold       *fold // sequential: every CPU batch folded onto one core

	ops            []op // backing store of all chains
	top, cpu, tail chain
	devs           []chain

	rep           Report
	start, forkAt float64
	pending       atomic.Int32 // portions still running
	stopped       atomic.Bool  // a chain found ctx done and stopped at its boundary
	done          chan struct{}
}

// fold is what a folding run keeps of the batch in flight (its chains run
// one after another, one batch at a time) and the fold's one task, bound
// once: folding a level allocates nothing.
type fold struct {
	b    Batch
	task func(int) // f.all
}

// all is the one task of a folded batch: all of its tasks, in order.
func (f *fold) all(int) { f.b.Each(0, f.b.Tasks) }

// division is one point of Algorithm 8's parameter space. There are never
// more devices than subproblems left for them.
type division struct {
	s, y  int             // split level and transfer level, s ≤ y
	cpu   int             // the CPU solves subproblems [0, cpu) of level s ...
	devs  []LevelExecutor // ... and these devices equal contiguous stripes of the rest
	grain int             // leaf coarsening of the CPU portion (grain.go)
	fold  bool            // every CPU batch folded onto one core (the sequential baseline)
}

// execute plans the division, runs it to completion (or to the level
// boundary where ctx stopped it) and returns the run for the caller to
// derive its portion times from and settle.
func execute(ctx context.Context, be Backend, cfg *RunConfig, alg Alg, galg GPUAlg, strategy string, d division) *run {
	r := &run{
		ctx: ctx, cancelable: ctx.Done() != nil,
		be: be, alg: alg, galg: galg, a: alg.Arity(), L: alg.Levels(),
		rep:  Report{Algorithm: alg.Name(), Strategy: strategy},
		done: make(chan struct{}),
	}
	if cfg.Coalesce {
		r.tr, _ = alg.(Transformable)
	}
	width := TasksAtLevel(r.a, d.s)
	k := len(d.devs)
	if k > 0 {
		r.sa = segmentAllocator(be)
		r.devs = make([]chain, k)
	}
	// An upper bound, so that planning is one allocation whatever L is:
	// top and tail are s ops each, the CPU phase at most 2(L−s)+1, a device
	// phase 2(L−s) batches plus nine fixed ops.
	below := 2 * (r.L - d.s)
	r.ops = make([]op, 0, 2*d.s+below+1+k*(below+9))

	r.top.ops = r.levels(opDivide, 0, d.s-1, 0, 0, 1)
	r.cpu.ops = r.cpuPhase(d.s, 0, d.cpu, d.grain)
	c0 := d.cpu
	for i := range r.devs {
		c1 := c0 + (width-d.cpu)/k
		if i < (width-d.cpu)%k {
			c1++
		}
		r.devs[i].ops = r.devicePhase(&r.devs[i], d.devs[i], d.s, d.y, c0, c1)
		c0 = c1
	}
	r.tail.ops = r.levels(opCombine, d.s-1, 0, 0, 0, 1)

	if d.fold {
		r.fold = new(fold)
		r.fold.task = r.fold.all
	}
	r.start = be.Now()
	r.top.start(r)
	awaitChain(be, r.done)
	return r
}

// levels appends one op of the kind per level over the portion [c0, c1) of
// level s and returns them: divide kinds walk down the tree (from..to
// ascending), combine kinds back up (descending). A range whose from is
// already past its to is empty.
func (r *run) levels(kind opKind, from, to, s, c0, c1 int) []op {
	n := len(r.ops)
	dir := 1
	if kind == opCombine || kind == opGPUCombine {
		dir = -1
	}
	for l := from; (to-l)*dir >= 0; l += dir {
		r.emit(kind, l, s, c0, c1)
	}
	return r.ops[n:]
}

// emit appends one op over the portion [c0, c1) of level s, scaled to the
// op's own level ≥ s.
func (r *run) emit(kind opKind, level, s, c0, c1 int) {
	f := TasksAtLevel(r.a, level-s)
	r.ops = append(r.ops, op{kind, level, c0 * f, c1 * f})
}

// cpuPhase appends, and returns, the CPU solution of subproblems [c0, c1) of
// level s: divide s..cl−1, the leaves, combine cl−1..s. With a grain the
// bottom k = L−cl levels collapse into one depth-first coarse chunk per
// subtree rooted at cl, never rising above s.
func (r *run) cpuPhase(s, c0, c1, grain int) []op {
	if c1 <= c0 {
		return nil
	}
	n := len(r.ops)
	k := coarseLevels(grain, r.a, r.L, s, r.be.CPU().Parallelism(),
		func(cl int) int { return (c1 - c0) * TasksAtLevel(r.a, cl-s) })
	cl := r.L - k
	r.levels(opDivide, s, cl-1, s, c0, c1)
	if k > 0 {
		r.emit(opCoarse, cl, s, c0, c1)
	} else {
		r.emit(opBase, r.L, s, c0, c1)
	}
	r.levels(opCombine, cl-1, s, s, c0, c1)
	return r.ops[n:]
}

// devicePhase appends, and returns, device dev's solution of subproblems
// [c0, c1) of level s as chain c: ship them, solve them bottom-up through
// level y on the device (inside the §6.3 layout switch when coalescing),
// bring them home, and combine y−1..s on the CPU, where the chain competes
// with the CPU portion for cores as in the paper's two-thread
// implementation.
func (r *run) devicePhase(c *chain, dev LevelExecutor, s, y, c0, c1 int) []op {
	c.dev, c.bytes = dev, r.galg.GPUBytes(s, c0, c1)
	n := len(r.ops)
	if r.sa != nil {
		r.ops = append(r.ops, op{kind: opLease})
	}
	r.ops = append(r.ops, op{kind: opUpload}, op{kind: opStamp, level: stampResident})
	r.levels(opGPUDivide, s, r.L-1, s, c0, c1)
	if r.tr != nil {
		r.emit(opPermute, r.L, s, c0, c1)
	}
	r.emit(opGPUBase, r.L, s, c0, c1)
	r.levels(opGPUCombine, r.L-1, y, s, c0, c1)
	if r.tr != nil {
		r.emit(opPermuteBack, y, s, c0, c1)
	}
	r.ops = append(r.ops, op{kind: opStamp, level: stampRoot}, op{kind: opDownload}, op{kind: opStamp, level: stampHome})
	r.levels(opCombine, y-1, s, s, c0, c1)
	return r.ops[n:]
}

// start begins walking the chain.
func (c *chain) start(r *run) {
	c.run = r
	if len(c.ops) > 0 {
		c.next = c.advance
	}
	c.advance()
}

// advance executes the chain's next op; it is also the completion callback
// of the op before. ctx is checked before every op — a level boundary — so
// the op in flight always completes and nothing after it starts.
func (c *chain) advance() {
	r := c.run
	for {
		if r.cancelable && r.ctx.Err() != nil {
			r.stopped.Store(true)
			r.chainDone(c)
			return
		}
		if c.pc == len(c.ops) {
			r.chainDone(c)
			return
		}
		o := c.ops[c.pc]
		c.pc++
		var b Batch
		switch o.kind {
		case opLease:
			c.seg = r.sa.AllocSegment(c.bytes)
			continue
		case opStamp:
			c.stamps[o.level] = r.be.Now()
			continue
		case opUpload:
			r.be.TransferToGPU(c.bytes, c.next)
			return
		case opDownload:
			r.be.TransferToCPU(c.bytes, c.next)
			return
		case opDivide:
			b = r.alg.DivideBatch(o.level, o.lo, o.hi)
		case opBase:
			b = r.alg.BaseBatch(o.lo, o.hi)
		case opCombine:
			b = r.alg.CombineBatch(o.level, o.lo, o.hi)
		case opCoarse:
			b = CoarseBatch(r.alg, o.level, o.lo, o.hi)
		case opGPUDivide:
			b = r.galg.GPUDivideBatch(o.level, o.lo, o.hi)
		case opGPUBase:
			b = r.galg.GPUBaseBatch(o.lo, o.hi)
		case opGPUCombine:
			b = r.galg.GPUCombineBatch(o.level, o.lo, o.hi)
		case opPermute:
			b = r.tr.PermuteForGPU(o.level, o.lo, o.hi)
		case opPermuteBack:
			b = r.tr.PermuteBack(o.level, o.lo, o.hi)
		}
		b.Level = o.level // for observability layers (trace spans, per-level metrics)
		switch {
		case o.kind >= opGPUDivide:
			c.dev.Submit(b, c.next)
		case r.fold != nil:
			c.submitFolded(b)
		default:
			r.be.CPU().Submit(b, c.next)
		}
		return
	}
}

// submitFolded runs a batch on a single core by folding it into one task
// whose cost is the whole batch, preserving functional execution order.
func (c *chain) submitFolded(b Batch) {
	if b.Empty() {
		c.next()
		return
	}
	f := c.run.fold
	f.b = b
	seq := Batch{Tasks: 1, Cost: b.Cost.Scale(float64(b.Tasks)), Level: b.Level, Run: f.task}
	seq.Cost.WorkingSet = b.Cost.WorkingSet
	c.run.be.CPU().Submit(seq, c.next)
}

// chainDone sequences the run: the top chain forks the portions — the CPU
// portion first, then the device stripes in index order, which fixes the
// simulator's event order — the last portion to finish joins into the tail,
// and the tail (or a cancellation at the fork or the join) ends the run.
// Portions finish on arbitrary goroutines on the native backend; the
// pending counter orders their writes before the join's reads.
func (r *run) chainDone(c *chain) {
	switch c {
	case &r.top:
		if r.stopped.Load() {
			close(r.done)
			return
		}
		r.forkAt = r.be.Now()
		r.pending.Store(int32(1 + len(r.devs)))
		r.cpu.start(r)
		for i := range r.devs {
			r.devs[i].start(r)
		}
	case &r.tail:
		close(r.done)
	default:
		c.end = r.be.Now()
		if r.pending.Add(-1) > 0 {
			return
		}
		if r.stopped.Load() {
			close(r.done)
			return
		}
		r.tail.start(r)
	}
}

// since is stamp − ref for a stamp that was reached, 0 for one that was not
// (a chain canceled before it leaves the stamp at zero).
func since(stamp, ref float64) float64 {
	if stamp < ref {
		return 0
	}
	return stamp - ref
}

// settle finalizes the report of a finished run: stamps the makespan, runs
// the Finish hook (only for complete, fault-free runs — a partial result is
// not valid data), applies observers, and builds the cancellation or
// device-fault error. A device fault recorded by a Faulter layer takes
// precedence over cancellation: the fault is the more specific cause, and
// its error already classifies under dcerr.ErrDeviceFault.
func (r *run) settle(cfg *RunConfig) (Report, error) {
	for i := range r.devs {
		r.devs[i].seg.Release()
	}
	rep := &r.rep
	rep.Seconds = r.be.Now() - r.start
	rep.AutoStrategy = cfg.AutoStrategy
	if mb, ok := r.be.(*meteredBackend); ok {
		mb.finish(rep.Seconds)
	}
	var err error
	switch fault := deviceFault(r.be); {
	case fault != nil:
		rep.Partial = true
		err = fmt.Errorf("core: %s %s: %w", rep.Algorithm, rep.Strategy, fault)
	case r.stopped.Load():
		rep.Partial = true
		err = canceledErr(r.ctx, r.alg, rep.Strategy)
	default:
		finish(r.alg)
	}
	if cfg.Observe != nil {
		cfg.Observe(rep)
	}
	return *rep, err
}
