package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Execution plans (DESIGN.md §11b). Every executor in this package is one
// parameterisation of the paper's Algorithm 8: divide full width down to a
// split level s, give the CPU the subproblems [0, cpu) of that level and
// stripe the rest over the devices, bring each stripe home at the transfer
// level y, combine full width back to the root. The schedule is data — a
// chain is a []op — built by the phase builders and walked by one
// interpreter; chains start each other at fork ops and wait for each other
// at joins, and the fused executor (fused.go) is the same interpreter over a
// forest of trees.

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
	opUpload      // host→device transfer of the chain's footprint
	opDownload    // device→host transfer of the same bytes
	opStamp       // record Now() in the chain's stamps[level]
	opFork        // start chains [lo, hi) of the run, in order, then go on
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
// see that state. A device batch op runs the algorithm's DeviceKernels when
// it has them and its CPU constructor's batch otherwise (construct).
type op struct {
	kind          opKind
	level, lo, hi int
}

// chain is a cursor over a sequence of ops that execute one after another,
// each submitted when the previous one completes. A chain is started by a
// fork op of another chain or, when it has a join (waits > 0), by the last
// of the chains that end in it.
type chain struct {
	run   *run
	ops   []op
	pc    int
	next  func() // c.advance, bound at the first op that completes later: the chain's only completion callback
	end   float64
	waits atomic.Int32 // its join: how many chains have yet to end before it starts
	id    int32        // its index in run.chains, set only for a run's tap
	then  *chain       // the chain in whose join this one ends, if any

	// Device chains only.
	dev    LevelExecutor
	bytes  int64 // link footprint: what its upload and download move
	stamps [3]float64
}

// run is one execution: its chains, and what they share. A single tree's
// chains are the top (divide to the split level, then fork), the forked
// portions — the CPU's and one per device stripe — and the tail, which is
// their join; a forest's are listed in fused.go.
type run struct {
	ctx        context.Context
	cancelable bool
	forest     bool // galg is a forest, whose launches span levels and come stamped
	be         Backend
	alg        Alg
	galg       GPUAlg        // nil when the division has no devices
	dk         DeviceKernels // galg's own device kernels, nil when the device runs its CPU batches
	tr         Transformable // non-nil only under WithCoalesce
	a, L       int
	fold       *fold // sequential on an event-loop backend: every CPU batch folded onto one core
	tap        *tap  // nil when nothing listens (metering.go)

	ops    []op // backing store of all chains
	chains []chain

	rep     [1]Report // a single tree's report; a forest's are its caller's
	start   float64
	pending atomic.Int32   // chains started and not yet ended
	stopped atomic.Bool    // a chain found ctx done and stopped at its boundary
	done    sync.WaitGroup // released by the last chain to end
}

// The chains of a single tree, by index; the device chains follow.
const (
	chTop = iota
	chTail
	chCPU
	chDev
)

// devs are the device chains of a single tree's run.
func (r *run) devs() []chain { return r.chains[chDev:] }

// forkAt is when a single tree's portions were forked: the top chain ends
// with the fork op (or short of it, stopped: then no portion ran).
func (r *run) forkAt() float64 { return r.chains[chTop].end }

// fold is what a folding run keeps of the batch in flight (its chains run
// one after another, one batch at a time) and the fold's one task, bound
// once: folding a level allocates nothing. Only an event-loop backend
// folds; an autonomous one runs the sequential baseline as one coarse walk.
type fold struct {
	b    Batch
	task func(int) // f.split
}

// split is the one task of a folded batch, whose clock prices the fold from
// its cost alone: the body may then use every host core.
func (f *fold) split(int) { EachSplit(f.b) }

// division is one point of Algorithm 8's parameter space. There are never
// more devices than subproblems left for them.
type division struct {
	s, y  int             // split level and transfer level, s ≤ y
	cpu   int             // the CPU solves subproblems [0, cpu) of level s ...
	devs  []LevelExecutor // ... and these devices equal contiguous stripes of the rest
	grain int             // leaf coarsening of the CPU portion (grain.go)
	fold  bool            // every CPU batch folded onto one core (the sequential baseline on an event-loop backend)
}

// newRun is a run with nothing planned yet.
func newRun(ctx context.Context, be Backend, cfg *RunConfig, alg Alg, galg GPUAlg) *run {
	r := &run{
		ctx: ctx, cancelable: ctx.Done() != nil,
		be: be, alg: alg, galg: galg, a: alg.Arity(), L: alg.Levels(),
		tap: newTap(cfg, be),
	}
	r.dk, _ = galg.(DeviceKernels)
	if cfg.Coalesce {
		r.tr, _ = alg.(Transformable)
	}
	return r
}

// execute plans the division, runs it to completion (or to the level
// boundary where ctx stopped it) and returns the run for the caller to
// derive its portion times from and settle.
func execute(ctx context.Context, be Backend, cfg *RunConfig, alg Alg, galg GPUAlg, strategy string, d division) *run {
	k := len(d.devs)
	r := newRun(ctx, be, cfg, alg, galg)
	r.rep[0] = Report{Algorithm: alg.Name(), Strategy: strategy}
	r.chains = make([]chain, chDev+k)
	// The CPU portion's coarse root, L when nothing collapses.
	cl := r.L - coarseLevels(d.grain, r.a, r.L, d.s, be.CPU().Parallelism(),
		func(cl int) int { return d.cpu * TasksAtLevel(r.a, cl-d.s) })
	// An upper bound, so that planning is one allocation whatever L is:
	// top and tail are s ops each plus the fork, the CPU phase 2(cl−s)+1, a
	// device phase 2(L−s) batches plus eight fixed ops.
	below := 2 * (r.L - d.s)
	r.ops = make([]op, 0, 2*d.s+1+2*(cl-d.s)+1+k*(below+8))

	// The top forks the CPU portion first, then the device stripes in index
	// order, which fixes the simulator's event order; the tail is their join.
	top, tail := &r.chains[chTop], &r.chains[chTail]
	r.levels(opDivide, 0, d.s-1, 0, 0, 1)
	r.ops = append(r.ops, op{kind: opFork, lo: chCPU, hi: len(r.chains)})
	top.ops = r.ops
	tail.waits.Store(int32(1 + k))
	r.chains[chCPU].ops = r.cpuPhase(d.s, cl, 0, d.cpu)
	r.chains[chCPU].then = tail
	width := TasksAtLevel(r.a, d.s)
	c0 := d.cpu
	for i := range r.devs() {
		c1 := c0 + (width-d.cpu)/k
		if i < (width-d.cpu)%k {
			c1++
		}
		c := &r.devs()[i]
		c.ops = r.devicePhase(c, d.devs[i], d.s, d.y, c0, c1)
		c.then = tail
		c0 = c1
	}
	tail.ops = r.levels(opCombine, d.s-1, 0, 0, 0, 1)

	if d.fold {
		r.fold = new(fold)
		r.fold.task = r.fold.split
	}
	r.drive(top)
	return r
}

// drive starts the run at its first chain and blocks until its last chain
// has ended. An event-loop backend is driven through Wait; on an autonomous
// one the run blocks on its own signal alone, so concurrent runs sharing the
// backend do not wait for each other.
func (r *run) drive(first *chain) {
	if r.tap != nil {
		r.tap.watch(r.chains)
	}
	r.start = r.be.Now()
	r.done.Add(1)
	r.begin(first)
	if autonomous(r.be) {
		r.done.Wait()
		return
	}
	r.be.Wait()
	if r.pending.Load() != 0 {
		panic("core: execution did not complete")
	}
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
// level s: divide s..cl−1, the leaves, combine cl−1..s. With cl < L the
// bottom L−cl levels collapse into one depth-first coarse chunk per subtree
// rooted at cl ≥ s.
func (r *run) cpuPhase(s, cl, c0, c1 int) []op {
	if c1 <= c0 {
		return nil
	}
	n := len(r.ops)
	r.levels(opDivide, s, cl-1, s, c0, c1)
	if cl < r.L {
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
	n := len(r.ops)
	c.dev, c.bytes = dev, r.galg.GPUBytes(s, c0, c1)
	r.ops = append(r.ops, op{kind: opUpload}, op{kind: opStamp, level: stampResident})
	r.descend(s, s, c0, c1)
	r.levels(opGPUCombine, r.L-1, y, s, c0, c1)
	if r.tr != nil {
		r.emit(opPermuteBack, y, s, c0, c1)
	}
	r.ops = append(r.ops, op{kind: opStamp, level: stampRoot}, op{kind: opDownload}, op{kind: opStamp, level: stampHome})
	r.levels(opCombine, y-1, s, s, c0, c1)
	return r.ops[n:]
}

// descend appends the device's way down over the portion [c0, c1) of level
// s: divide from..L−1, the switch to the device layout when coalescing, the
// leaves.
func (r *run) descend(from, s, c0, c1 int) {
	r.levels(opGPUDivide, from, r.L-1, s, c0, c1)
	if r.tr != nil {
		r.emit(opPermute, r.L, s, c0, c1)
	}
	r.emit(opGPUBase, r.L, s, c0, c1)
}

// ladder plans and runs the dynamic per-level division: the top chain
// divides full width on the CPU, then every level, leaves first and back up
// to the root, runs on the join chain — whole on the CPU when split leaves
// it all there, else forked into the CPU's [0, kc) and a device chain that
// ships [kc, k) over, solves it and brings it home, the two meeting in the
// next level's join. Chains, in index order: the top, then per split
// level its CPU chain, its device chain and its join.
func ladder(ctx context.Context, be Backend, cfg *RunConfig, alg GPUAlg) *run {
	r := newRun(ctx, be, cfg, alg, alg)
	r.rep[0] = Report{Algorithm: alg.Name(), Strategy: "dynamic-hybrid"}
	p, g, gamma := float64(be.CPU().Parallelism()), float64(be.GPU().Parallelism()), be.GPUGamma()
	splits := 0
	for l := 0; l <= r.L; l++ {
		if k := TasksAtLevel(r.a, l); split(p, g, gamma, k) < k {
			splits++
		}
	}
	r.chains = make([]chain, 1+3*splits)
	// L divides, one CPU op per level, and per split level a fork and three
	// device ops.
	r.ops = make([]op, 0, 2*r.L+1+4*splits)

	r.levels(opDivide, 0, r.L-1, 0, 0, 1)
	join, at := &r.chains[0], 0
	for l, i := r.L, 0; l >= 0; l-- {
		cpuKind, gpuKind := opCombine, opGPUCombine
		if l == r.L {
			cpuKind, gpuKind = opBase, opGPUBase
		}
		k := TasksAtLevel(r.a, l)
		kc := split(p, g, gamma, k)
		if kc == k {
			r.ops = append(r.ops, op{cpuKind, l, 0, k})
			continue
		}
		c := 1 + 3*i // the level's CPU chain; its device chain and join follow
		cpu, dev := &r.chains[c], &r.chains[c+1]
		r.ops = append(r.ops, op{kind: opFork, lo: c, hi: c + 2})
		join.ops, join = r.ops[at:], &r.chains[c+2]
		join.waits.Store(2)
		cpu.then, dev.then = join, join

		at = len(r.ops)
		r.ops = append(r.ops, op{cpuKind, l, 0, kc})
		cpu.ops = r.ops[at:]
		at = len(r.ops)
		dev.dev, dev.bytes = be.GPU(), alg.GPUBytes(l, kc, k)
		r.ops = append(r.ops, op{kind: opUpload}, op{gpuKind, l, kc, k}, op{kind: opDownload})
		dev.ops = r.ops[at:]
		at = len(r.ops)
		i++
	}
	join.ops = r.ops[at:]
	r.drive(&r.chains[0])
	return r
}

// split is how many of a level's k subproblems the dynamic division keeps
// on the CPU: a share proportional to the units' aggregate rates, p cores
// against γ·min(k, g) device lanes, or all of them when the level is too
// narrow to be worth a transfer.
func split(p, g, gamma float64, k int) int {
	if float64(k) <= 2*p {
		return k
	}
	cpuShare := p / (p + gamma*min(float64(k), g))
	return min(max(int(cpuShare*float64(k)+0.5), 0), k)
}

// begin starts walking the chain.
func (r *run) begin(c *chain) {
	r.pending.Add(1)
	c.run = r
	c.advance()
}

// advance executes the chain's next op; it is also the completion callback
// of the op before, whose interval the run's tap, if any, closes first. ctx
// is checked before every op — a level boundary — so nothing after the op in
// flight starts, and that op completes unless it is a coarse walk, which
// stops at its next phase boundary.
func (c *chain) advance() {
	r := c.run
	if r.tap != nil {
		r.tap.landed(c)
	}
	for {
		if r.cancelable && r.ctx.Err() != nil {
			r.stopped.Store(true)
			c.ended()
			return
		}
		if c.pc == len(c.ops) {
			c.ended()
			return
		}
		o := c.ops[c.pc]
		c.pc++
		switch o.kind { // the ops that are done when they return
		case opStamp:
			c.stamps[o.level] = r.be.Now()
			continue
		case opFork:
			for i := o.lo; i < o.hi; i++ {
				r.begin(&r.chains[i])
			}
			continue
		}
		if c.next == nil {
			c.next = c.advance
		}
		var b Batch
		switch o.kind {
		case opUpload:
			c.measureTransfer(true)
			r.be.TransferToGPU(c.bytes, c.next)
			return
		case opDownload:
			c.measureTransfer(false)
			r.be.TransferToCPU(c.bytes, c.next)
			return
		case opCoarse:
			b = CoarseBatch(r.alg, o.level, o.lo, o.hi, r.ctx.Done()) // nil unless cancelable: nothing polls
		case opPermute:
			b = r.tr.PermuteForGPU(o.level, o.lo, o.hi)
		case opPermuteBack:
			b = r.tr.PermuteBack(o.level, o.lo, o.hi)
		default:
			b = construct(r.alg, r.dk, o.kind, o.level, o.lo, o.hi)
		}
		if !r.forest {
			b.Level = o.level // for the run's intervals (Interval.Level)
		}
		switch {
		case o.kind >= opGPUDivide:
			c.measureBatch(UnitGPU, &b)
			c.dev.Submit(b, c.next)
		case r.fold != nil:
			c.submitFolded(b)
		default:
			c.measureBatch(UnitCPU, &b)
			r.be.CPU().Submit(b, c.next)
		}
		return
	}
}

// construct builds the batch of a divide, base or combine op, CPU or device,
// over [lo, hi) of level. A device op's batch is the algorithm's own kernel
// when it declares DeviceKernels (dk) and the CPU constructor's otherwise:
// the paper's Algorithm 3 kernel is Algorithm 2's per-task body.
func construct(alg Alg, dk DeviceKernels, kind opKind, level, lo, hi int) Batch {
	own := dk != nil && kind >= opGPUDivide
	switch kind {
	case opDivide, opGPUDivide:
		if own {
			return dk.GPUDivideBatch(level, lo, hi)
		}
		return alg.DivideBatch(level, lo, hi)
	case opBase, opGPUBase:
		if own {
			return dk.GPUBaseBatch(lo, hi)
		}
		return alg.BaseBatch(lo, hi)
	case opCombine, opGPUCombine:
		if own {
			return dk.GPUCombineBatch(level, lo, hi)
		}
		return alg.CombineBatch(level, lo, hi)
	}
	panic(fmt.Sprintf("core: op kind %d has no constructor", kind))
}

// submitFolded runs a batch on a single core by folding it into one task
// whose cost is the whole batch. The task may split the body over the
// host's cores (fold.split), which the single virtual core never sees.
func (c *chain) submitFolded(b Batch) {
	if b.Empty() {
		c.next()
		return
	}
	f := c.run.fold
	f.b = b
	seq := Batch{Tasks: 1, Cost: b.Cost.Scale(float64(b.Tasks)), Level: b.Level, Run: f.task}
	seq.Cost.WorkingSet = b.Cost.WorkingSet
	c.measureBatch(UnitCPU, &seq)
	c.run.be.CPU().Submit(seq, c.next)
}

// ended is the end of a chain, at its last op or at the boundary where ctx
// stopped it: the last chain to end in a join starts the chain that waits
// there — which, in a stopped run, ends at its own first boundary — and the
// last chain of all to end ends the run. Chains end on arbitrary goroutines
// on the native backend; the two counters order their writes before the
// reads of the chain they start and of the run's caller.
func (c *chain) ended() {
	r := c.run
	c.end = r.be.Now()
	if t := c.then; t != nil && t.waits.Add(-1) == 0 {
		r.begin(t)
	}
	if r.pending.Add(-1) == 0 {
		r.done.Done()
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

// settle finalizes the reports of a finished run — a single tree's one, a
// forest's one per tree: books the makespan, runs the Finish hook (only for
// complete, fault-free runs — a partial result is not valid data), builds
// the cancellation or device-fault error and applies the observers. A device fault recorded by a Faulter layer
// takes precedence over cancellation: the fault is the more specific cause,
// and its error already classifies under dcerr.ErrDeviceFault. Seconds is
// the makespan unless the caller derived the report's own from its stamps,
// which stands only in a complete run.
func (r *run) settle(cfg *RunConfig, reps []Report) error {
	makespan := r.be.Now() - r.start
	if r.tap != nil {
		r.tap.finish(makespan)
	}
	var err error
	switch fault := deviceFault(r.be); {
	case fault != nil:
		err = fmt.Errorf("core: %s %s: %w", r.alg.Name(), reps[0].Strategy, fault)
	case r.stopped.Load():
		err = canceledErr(r.ctx, r.alg, reps[0].Strategy)
	default:
		finish(r.alg)
	}
	for i := range reps {
		rep := &reps[i]
		rep.AutoStrategy = cfg.AutoStrategy
		rep.Partial = err != nil
		if rep.Partial || rep.Seconds == 0 {
			rep.Seconds = makespan
		}
		if cfg.Observe != nil {
			cfg.Observe(rep)
		}
	}
	return err
}

// report settles a single tree's run.
func (r *run) report(cfg *RunConfig) (Report, error) {
	err := r.settle(cfg, r.rep[:])
	return r.rep[0], err
}
