package native

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
)

// job is one submitted batch flowing through the engine. Instead of one
// closure per chunk (the old pool), a single job descriptor is shared by
// every span of the batch: workers execute the batch's body (in whichever of
// its two forms, through core.Batch.Each) over index ranges and decrement
// remaining once per range, so the per-chunk cost is two field reads and one
// atomic add — no allocation, no channel operation.
type job struct {
	run       func(i int)
	runRange  func(lo, hi int)
	done      func()
	remaining atomic.Int64
}

// Engine tuning constants.
const (
	// chunkQuantum bounds how many tasks a worker runs between checks for
	// hungry peers, so a span of slow tasks becomes stealable at quantum
	// granularity instead of only at span boundaries.
	chunkQuantum = 64
	// searchRounds is how many full scan rounds (own deque, injector, every
	// victim) a worker spins through before parking.
	searchRounds = 4
)

// engine is the work-stealing executor behind Backend's pools: p resident
// worker goroutines, each owning a Chase-Lev deque of range spans, fed by a
// mutex-guarded FIFO injector that Submit fills. Idle workers spin briefly
// over the steal targets, then park on a condition variable; producers wake
// them only when a parked worker exists, so the steady state takes no locks.
type engine struct {
	workers []*worker
	pending *sync.WaitGroup

	// injector: spans submitted from outside the worker set. injMu also
	// guards closed against Submit, replacing the old pool's RWMutex —
	// a Submit that enqueued under closed == false is always drained.
	injMu   sync.Mutex
	inj     []*span
	injHead int
	closed  bool

	injLen     atomic.Int32 // len of injector, for lock-free empty checks
	stealable  atomic.Int64 // spans visible in the injector or any deque
	searching  atomic.Int32 // workers scanning for work right now
	idle       atomic.Int32 // workers parked in cond.Wait
	closedFlag atomic.Bool

	parkMu   sync.Mutex
	parkCond *sync.Cond

	spanPool sync.Pool
	jobPool  sync.Pool

	// Observability instruments; nil (no-op) unless Config.Metrics was set.
	// chunks and steals are accumulated per worker and flushed on busy→idle
	// transitions (staleness bound documented in DESIGN.md §9/§11).
	busyWorkers *metrics.Gauge
	chunks      *metrics.Counter
	tasksRun    *metrics.Counter
	steals      *metrics.Counter
	closeRaces  *metrics.Counter
}

// worker is one resident goroutine of an engine.
type worker struct {
	e  *engine
	id int
	dq *deque

	rng uint64
	// Local accumulators, flushed to the shared counters on busy→idle
	// transitions so hot loops never touch shared cache lines.
	localChunks uint64
	localSteals uint64
	busy        bool
}

var _ core.LevelExecutor = (*engine)(nil)

func newEngine(workers int, pending *sync.WaitGroup, reg *metrics.Registry, prefix string) *engine {
	e := &engine{
		pending:     pending,
		busyWorkers: reg.Gauge(prefix + MetricBusyWorkers),
		chunks:      reg.Counter(prefix + MetricChunks),
		tasksRun:    reg.Counter(prefix + MetricTasks),
		steals:      reg.Counter(prefix + MetricSteals),
		closeRaces:  reg.Counter(MetricSubmitAfterClose),
	}
	e.parkCond = sync.NewCond(&e.parkMu)
	e.spanPool.New = func() any { return new(span) }
	e.jobPool.New = func() any { return new(job) }
	e.inj = make([]*span, 0, 4*workers)
	e.workers = make([]*worker, workers)
	for i := range e.workers {
		w := &worker{e: e, id: i, dq: newDeque(), rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
		e.workers[i] = w
	}
	for _, w := range e.workers {
		go w.loop()
	}
	return e
}

// Parallelism implements core.LevelExecutor.
func (e *engine) Parallelism() int { return len(e.workers) }

// Submit implements core.LevelExecutor: the batch becomes one shared job
// descriptor plus min(workers, tasks) initial range spans in the injector.
// Workers split spans further on demand (when a peer is searching or
// parked), so balance under skew comes from stealing, not from the submit
// path. With a nil metrics registry the call performs no allocation: job and
// span descriptors are pooled, and the counter updates below are batched
// once per Submit rather than per chunk.
func (e *engine) Submit(b core.Batch, done func()) {
	if b.Empty() {
		if done != nil {
			done()
		}
		return
	}
	e.tasksRun.Add(uint64(b.Tasks))
	j := e.jobPool.Get().(*job)
	j.run, j.runRange = b.Run, b.RunRange
	j.done = done
	j.remaining.Store(int64(b.Tasks))

	// Keep the backend pending until the continuation has run, so Wait
	// cannot observe an idle instant mid-chain.
	e.pending.Add(1)

	k := len(e.workers)
	if b.Tasks < k {
		k = b.Tasks
	}
	base, rem := b.Tasks/k, b.Tasks%k

	e.injMu.Lock()
	if e.closed {
		e.injMu.Unlock()
		e.closeRaces.Inc()
		// Work submitted after Close is dropped, but the completion still
		// fires so the submitter's chain unwinds instead of deadlocking.
		j.run, j.runRange, j.done = nil, nil, nil
		e.jobPool.Put(j)
		if done != nil {
			done()
		}
		e.pending.Done()
		return
	}
	lo := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		s := e.spanPool.Get().(*span)
		s.j, s.lo, s.hi = j, lo, lo+n
		lo += n
		e.injPush(s)
	}
	e.injLen.Add(int32(k))
	e.stealable.Add(int64(k))
	e.injMu.Unlock()
	e.wake(k)
}

// injPush appends a span to the injector ring. Caller holds injMu.
func (e *engine) injPush(s *span) {
	if e.injHead > 0 && e.injHead == len(e.inj) {
		// Fully drained: reset in place.
		e.inj = e.inj[:0]
		e.injHead = 0
	} else if e.injHead > cap(e.inj)/2 && e.injHead > 16 {
		// Mostly drained: compact so the backing array is reused instead of
		// growing without bound under chained submissions.
		n := copy(e.inj, e.inj[e.injHead:])
		e.inj = e.inj[:n]
		e.injHead = 0
	}
	e.inj = append(e.inj, s)
}

// takeInjected pops the oldest injected span, or nil.
func (e *engine) takeInjected() *span {
	if e.injLen.Load() == 0 {
		return nil
	}
	e.injMu.Lock()
	if e.injHead == len(e.inj) {
		e.injMu.Unlock()
		return nil
	}
	s := e.inj[e.injHead]
	e.inj[e.injHead] = nil
	e.injHead++
	e.injLen.Add(-1)
	e.stealable.Add(-1)
	e.injMu.Unlock()
	return s
}

// hungry reports whether some worker is looking for work right now — the
// signal that makes an executing worker split its span in half.
func (e *engine) hungry() bool {
	return e.searching.Load() > 0 || e.idle.Load() > 0
}

// wake rouses at most one parked worker, and only when no worker is already
// searching — a searching worker rescans the injector and every deque each
// round, so it will find the new spans itself (throttled wakeup, as in Go's
// and Tokio's schedulers). A woken worker cascades: when it takes a span and
// sees more work queued, it wakes the next one. In the steady state (a
// worker searching, or nobody parked) this is one or two atomic loads.
//
// No wakeup is lost: a parker decrements searching and then re-reads
// stealable/injLen under parkMu before waiting, while a producer publishes
// spans before reading searching/idle; with sequentially consistent
// atomics, either the producer observes the decrement (and signals) or the
// parker observes the spans (and skips the wait).
func (e *engine) wake(n int) {
	if n <= 0 || e.searching.Load() > 0 || e.idle.Load() == 0 {
		return
	}
	e.parkMu.Lock()
	e.parkCond.Signal()
	e.parkMu.Unlock()
}

// close stops the workers. Spans already enqueued keep executing (matching
// the old pool, which drained its channel); work submitted after close is
// aborted by Submit itself. close is idempotent.
func (e *engine) close() {
	e.injMu.Lock()
	if e.closed {
		e.injMu.Unlock()
		return
	}
	e.closed = true
	e.closedFlag.Store(true)
	e.injMu.Unlock()
	e.parkMu.Lock()
	e.parkCond.Broadcast()
	e.parkMu.Unlock()
}

// finishTasks credits n executed (or, on close, dropped) tasks to the job
// and fires its completion when the last range lands.
func (e *engine) finishTasks(j *job, n int) {
	if j.remaining.Add(-int64(n)) == 0 {
		done := j.done
		j.run, j.runRange, j.done = nil, nil, nil
		e.jobPool.Put(j)
		if done != nil {
			done()
		}
		e.pending.Done()
	}
}

// loop is the worker body: pop local work, fall back to the injector, steal,
// spin a few rounds, park. Exits only after close, once every reachable
// source is drained.
func (w *worker) loop() {
	e := w.e
	rounds := 0
	for {
		if s := w.dq.pop(); s != nil {
			e.stealable.Add(-1)
			w.found(&rounds)
			w.runSpan(s)
			continue
		}
		if s := e.takeInjected(); s != nil {
			w.found(&rounds)
			// Cascaded wakeup: more injected spans can use another worker.
			if e.injLen.Load() > 0 {
				e.wake(1)
			}
			w.runSpan(s)
			continue
		}
		if s := w.trySteal(); s != nil {
			w.localSteals++
			w.found(&rounds)
			w.runSpan(s)
			continue
		}
		// Nothing anywhere. Spin a few rounds before sleeping: work often
		// arrives within microseconds when a chain's continuation resubmits.
		if rounds < searchRounds {
			rounds++
			if rounds == 1 {
				e.searching.Add(1)
			}
			runtime.Gosched()
			continue
		}
		if rounds >= 1 {
			e.searching.Add(-1)
		}
		rounds = 0
		w.flushIdle()
		if e.closedFlag.Load() {
			if w.exitIfDrained() {
				return
			}
			continue
		}
		w.park()
	}
}

// found resets the spin state after acquiring work.
func (w *worker) found(rounds *int) {
	if *rounds >= 1 {
		w.e.searching.Add(-1)
	}
	*rounds = 0
	if !w.busy {
		w.busy = true
		w.e.busyWorkers.Add(1)
	}
}

// flushIdle marks the busy→idle transition: the gauge steps down and the
// locally accumulated chunk/steal counts land in the shared counters.
func (w *worker) flushIdle() {
	if !w.busy {
		return
	}
	w.busy = false
	w.e.busyWorkers.Add(-1)
	if w.localChunks > 0 {
		w.e.chunks.Add(w.localChunks)
		w.localChunks = 0
	}
	if w.localSteals > 0 {
		w.e.steals.Add(w.localSteals)
		w.localSteals = 0
	}
}

// exitIfDrained re-checks the injector under its lock before the worker
// exits, so a Submit that enqueued spans moments before close set the flag
// is never stranded. Returns true when the worker should terminate.
func (w *worker) exitIfDrained() bool {
	e := w.e
	e.injMu.Lock()
	drained := e.injHead == len(e.inj)
	e.injMu.Unlock()
	return drained
}

// park blocks until work appears or the engine closes.
func (w *worker) park() {
	e := w.e
	e.parkMu.Lock()
	e.idle.Add(1)
	for e.stealable.Load() == 0 && e.injLen.Load() == 0 && !e.closedFlag.Load() {
		e.parkCond.Wait()
	}
	e.idle.Add(-1)
	e.parkMu.Unlock()
}

// trySteal scans every other worker's deque once, starting at a
// pseudo-random victim.
func (w *worker) trySteal() *span {
	e := w.e
	n := len(e.workers)
	if n == 1 {
		return nil
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := e.workers[(off+i)%n]
		if v == w {
			continue
		}
		if s := v.dq.steal(); s != nil {
			e.stealable.Add(-1)
			return s
		}
	}
	return nil
}

// nextRand is a xorshift64 step for victim selection.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// runSpan executes a span's index range. While peers are hungry the worker
// halves its remaining range, exposing the upper half on its own deque for
// thieves; execution proceeds in bounded quanta so even a span of expensive
// tasks becomes stealable quickly. The span descriptor is recycled
// immediately — the range lives in locals.
func (w *worker) runSpan(s *span) {
	e := w.e
	j, lo, hi := s.j, s.lo, s.hi
	s.j = nil
	e.spanPool.Put(s)
	// The job's body is stable while this span holds uncounted tasks
	// (finishTasks clears it only after the last range lands), so load it
	// once.
	body := core.Batch{Run: j.run, RunRange: j.runRange}
	executed := 0
	for lo < hi {
		// Split only while the remainder exceeds the quantum: halves
		// smaller than one quantum cost more in descriptor and deque
		// traffic than a peer could save by stealing them.
		if hi-lo > chunkQuantum && e.hungry() {
			mid := lo + (hi-lo)/2
			half := e.spanPool.Get().(*span)
			half.j, half.lo, half.hi = j, mid, hi
			if w.dq.push(half) {
				e.stealable.Add(1)
				hi = mid
				e.wake(1)
				continue
			}
			// Deque full (pathological): keep the range inline.
			half.j = nil
			e.spanPool.Put(half)
		}
		q := hi - lo
		if q > chunkQuantum {
			q = chunkQuantum
		}
		body.Each(lo, lo+q)
		lo += q
		executed += q
		w.localChunks++
	}
	e.finishTasks(j, executed)
}
