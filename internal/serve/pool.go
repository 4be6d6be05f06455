package serve

// Backend pool: per-device dispatch queues, load-aware placement, runtime
// topology control (AddBackend / DrainBackend) and per-device health.
// DESIGN.md §13.
//
// The stride scheduler stays global — one virtual-time heap orders every
// queued job — and placement happens only at the head: when a device has a
// free execution slot, the job with the smallest virtual finish tag is
// handed to the best-scoring device's FIFO. Placement is capacity-gated
// (a device accepts at most cap jobs between its queue and its in-flight
// set), so under contention jobs accumulate in the global heap, where both
// the fairness order and job fusion keep working exactly as in the
// single-backend server.

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Placement selects the load-aware placement policy for a backend pool.
type Placement int

const (
	// PlaceModeledWork is join-shortest-modeled-work, the default: each
	// device's backlog is the sum of its queued and in-flight jobs' modeled
	// sequential costs (internal/model, via the algorithms' ModelF/ModelLeaf
	// hooks), and the head job goes to the device with the least backlog.
	// Jobs without a cost model fall back to an N·(L+1) work proxy.
	PlaceModeledWork Placement = iota
	// PlaceJSQ is plain join-shortest-queue: occupancy (queued + in flight)
	// only, ignoring job sizes.
	PlaceJSQ
)

// String returns the policy name used in logs and BENCH artifacts.
func (p Placement) String() string {
	switch p {
	case PlaceModeledWork:
		return "modeled-work"
	case PlaceJSQ:
		return "jsq"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// device is one pool member: a backend plus its dispatch queue, execution
// slots, health (circuit breaker, fault injector) and drain state. All
// mutable fields are guarded by Server.mu except the breaker (own lock) and
// the trip counter (atomic, incremented under the breaker's lock).
type device struct {
	id   int
	be   core.Backend
	cap  int  // execution slots; 1 for non-autonomous backends
	auto bool // backend runs submitted work on its own goroutines

	queue    []*queued // FIFO handoff between placement and the runner
	inflight int
	work     float64 // modeled backlog (queued + in flight), for placement

	draining bool          // no new placements; drains to removal
	removed  bool          // drained and gone; kept in the slice for ids
	drained  chan struct{} // closed when the drain completes

	cond *sync.Cond // on Server.mu; wakes the device's runner loop

	breaker *breaker
	faults  *faults.Injector

	placements uint64
	trips      atomic.Uint64

	mQueueDepth   *metrics.Gauge
	mPlacements   *metrics.Counter
	mBreakerState *metrics.Gauge
	mBreakerTrips *metrics.Counter
}

// DeviceStats is one device's slice of a Stats snapshot.
type DeviceStats struct {
	// ID is the device's stable pool index (AddBackend order).
	ID int
	// QueueDepth and InFlight are the device's current occupancies.
	QueueDepth, InFlight int
	// Placements counts jobs placed on this device.
	Placements uint64
	// Draining and Removed are the drain state machine's two terminal-bound
	// flags: a draining device accepts no placements; a removed one is gone.
	Draining, Removed bool
	// BreakerState and BreakerTrips are this device's circuit breaker.
	BreakerState int
	BreakerTrips uint64
}

// newDevice builds a pool member. Called at construction and from
// AddBackend, with s.mu held in the latter case (the breaker callbacks it
// installs never take s.mu, so construction order does not matter).
func (s *Server) newDevice(id int, be core.Backend) *device {
	d := &device{id: id, be: be, cap: s.cfg.MaxInFlight, drained: make(chan struct{})}
	if a, ok := be.(core.Autonomous); ok && a.Autonomous() {
		d.auto = true
	} else {
		// The event-loop simulator must never be driven from two
		// goroutines at once.
		d.cap = 1
	}
	d.cond = sync.NewCond(&s.mu)
	d.faults = s.cfg.Faults
	if in, ok := s.cfg.DeviceFaults[id]; ok {
		d.faults = in
	}
	if reg := s.cfg.Metrics; reg != nil {
		d.mQueueDepth = reg.Gauge(fmt.Sprintf(MetricDeviceQueueDepthFmt, id))
		d.mPlacements = reg.Counter(fmt.Sprintf(MetricDevicePlacementsFmt, id))
		d.mBreakerState = reg.Gauge(fmt.Sprintf(MetricDeviceBreakerStateFmt, id))
		d.mBreakerTrips = reg.Counter(fmt.Sprintf(MetricDeviceBreakerTripsFmt, id))
	}
	if s.cfg.BreakerThreshold > 0 {
		d.breaker = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown,
			func(st int64) { d.mBreakerState.Set(st) },
			func() {
				d.trips.Add(1)
				d.mBreakerTrips.Inc()
				s.nTrips.Add(1)
				s.mBreakerTrips.Inc()
			})
	}
	return d
}

// modeledCost estimates a job's sequential work for placement. Algorithms
// exporting the paper's cost model (ModelF/ModelLeaf) get the §6 numeric
// sequential time; the rest fall back to N·(levels+1), the breadth-first
// task-count proxy.
func modeledCost(alg core.Alg) float64 {
	if m, ok := alg.(core.Modeled); ok {
		t, err := model.SequentialWork(alg.Arity(), alg.Shrink(), alg.Levels(), m.ModelF(), m.ModelLeaf())
		if err == nil {
			return t
		}
	}
	return float64(alg.N()) * float64(alg.Levels()+1)
}

// activeLocked counts devices accepting placements. Must hold s.mu.
func (s *Server) activeLocked() int {
	n := 0
	for _, d := range s.devices {
		if !d.removed && !d.draining {
			n++
		}
	}
	return n
}

// totalQueuedLocked is the admission-queue occupancy: the global heap plus
// every device's handoff FIFO (placed but not yet executing). Must hold s.mu.
func (s *Server) totalQueuedLocked() int {
	n := len(s.queue)
	for _, d := range s.devices {
		n += len(d.queue)
	}
	return n
}

// anyHealthyGPULocked reports whether some active device would admit a
// GPU-bound job right now (breaker closed, probing, or past cooldown).
// Must hold s.mu.
func (s *Server) anyHealthyGPULocked() bool {
	for _, d := range s.devices {
		if d.removed || d.draining {
			continue
		}
		if d.breaker == nil || d.breaker.canAdmit() {
			return true
		}
	}
	return false
}

// scoreLocked is the placement score (lower is better). Must hold s.mu.
func (s *Server) scoreLocked(d *device) float64 {
	if s.cfg.Placement == PlaceJSQ {
		return float64(d.inflight + len(d.queue))
	}
	return d.work
}

// placeHeadLocked tries to place the global heap's head job on a device.
// It returns false when nothing changed and the dispatcher should wait: the
// head stays queued (preserving the stride order) until a slot frees. Must
// hold s.mu; may temporarily settle a shed job. A true return means the
// loop should re-evaluate (a job was placed, rerouted to the CPU path, or
// shed).
func (s *Server) placeHeadLocked() bool {
	q := s.queue[0]
	gpu := gpuBound(q.job.Strategy) && !q.forceCPU

	var best *device
	gpuCapable := false // some active device could serve the GPU path later
	for _, d := range s.devices {
		if d.removed || d.draining {
			continue
		}
		if gpu && d.breaker != nil && !d.breaker.canAdmit() {
			continue
		}
		gpuCapable = true
		if d.inflight+len(d.queue) >= d.cap {
			continue
		}
		if best == nil || s.scoreLocked(d) < s.scoreLocked(best) ||
			(s.scoreLocked(d) == s.scoreLocked(best) && d.id < best.id) {
			best = d
		}
	}
	if best == nil {
		if gpuCapable || !gpu {
			return false // capacity wait: the head keeps its heap position
		}
		// GPU-bound head with every breaker open: degrade, as Submit would.
		if q.pol.Fallback == core.FallbackCPUOnly {
			q.forceCPU = true
			return true // re-place as a CPU-path job
		}
		heap.Pop(&s.queue)
		if q.vfinish > s.pass {
			s.pass = q.vfinish
		}
		s.noteDegraded()
		q.h.queueWait = time.Since(q.wallIn).Seconds()
		q.h.rep, q.h.err = q.neverRan(shedAtDispatch, dcerr.ErrDegraded)
		s.mQueueDepth.Set(int64(s.totalQueuedLocked()))
		s.settleLocked(q)
		return true
	}
	if gpu && best.breaker != nil {
		ok, probe := best.breaker.admit(proberOf(best))
		if !ok {
			return true // raced with a state change; re-evaluate
		}
		q.probe = probe
	}
	if q.job.Strategy == Auto && !q.autoDecided {
		// Price the job against the chosen device's calibration. A breaker
		// that would shed GPU-bound work restricts pricing to the CPU path;
		// a GPU-bound choice then takes the admission slot a fixed GPU-bound
		// job would have taken at the top of this function.
		s.decideAutoLocked(best, q, best.breaker == nil || best.breaker.canAdmit())
		if gpuBound(q.autoStrat) && best.breaker != nil {
			ok, probe := best.breaker.admit(proberOf(best))
			if !ok {
				// Slammed shut between the peek and the admit: re-decide on
				// the CPU path rather than spinning on this device.
				s.decideAutoLocked(best, q, false)
			} else {
				q.probe = probe
			}
		}
	}
	heap.Pop(&s.queue)
	if q.vfinish > s.pass {
		s.pass = q.vfinish
	}
	s.assignLocked(best, q)
	return true
}

// assignLocked hands a job to a device's FIFO. Must hold s.mu.
func (s *Server) assignLocked(d *device, q *queued) {
	d.queue = append(d.queue, q)
	d.work += q.cost
	d.placements++
	d.mPlacements.Inc()
	d.mQueueDepth.Set(int64(len(d.queue)))
	d.cond.Signal()
}

// deviceLoop is a pool member's runner: it pops the device FIFO into
// execution slots, and retires the device when a drain (or server close)
// completes. One goroutine per device, registered on s.runners.
func (s *Server) deviceLoop(d *device) {
	defer s.runners.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(d.queue) > 0 && d.inflight < d.cap {
			q := d.queue[0]
			copy(d.queue, d.queue[1:])
			d.queue[len(d.queue)-1] = nil
			d.queue = d.queue[:len(d.queue)-1]
			d.mQueueDepth.Set(int64(len(d.queue)))
			s.mQueueDepth.Set(int64(s.totalQueuedLocked()))
			d.inflight++
			s.inflight++
			s.mInFlight.Set(int64(s.inflight))
			s.jobs.Add(1)
			go s.run(d, q)
		}
		if d.inflight == 0 && len(d.queue) == 0 &&
			(d.draining || (s.closed && len(s.queue) == 0)) {
			if d.draining && !d.removed {
				d.removed = true
				d.draining = false
				s.stats.Drains++
				s.mDrains.Inc()
				close(d.drained)
				s.cond.Broadcast()
			}
			return
		}
		d.cond.Wait()
	}
}

// finishJobLocked releases a device execution slot. Must hold s.mu.
func (s *Server) finishJobLocked(d *device, q *queued) {
	d.inflight--
	s.inflight--
	d.work -= q.cost
	s.mInFlight.Set(int64(s.inflight))
	d.cond.Signal()
	s.cond.Signal()
}

// rebalanceLocked pushes a device's queued GPU-bound jobs back to the global
// heap — virtual finish tags intact, so the stride order is preserved — for
// placement on a healthier device. all also moves the CPU-path jobs (used by
// auto-drain, where the whole device is going away). Must hold s.mu.
func (s *Server) rebalanceLocked(d *device, all bool) {
	kept := d.queue[:0]
	for _, q := range d.queue {
		// Auto jobs move when their decided strategy is GPU-bound: the
		// decision was priced against this device, so it is cleared and the
		// job re-decides where it lands next.
		if all || (gpuBound(q.effective()) && !q.forceCPU) {
			if q.probe {
				d.breaker.abandon()
				q.probe = false
			}
			d.work -= q.cost
			if q.job.Strategy == Auto {
				q.clearAutoDecision()
			}
			heap.Push(&s.queue, q)
			s.stats.Rebalanced++
			s.mRebalances.Inc()
		} else {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(d.queue); i++ {
		d.queue[i] = nil
	}
	d.queue = kept
	d.mQueueDepth.Set(int64(len(d.queue)))
	s.cond.Broadcast()
}

// reactBreaker runs the pool's trip reaction after a device-fault verdict:
// queued GPU-bound work leaves the tripped device, and — with WithAutoDrain,
// when another device remains — the device drains itself out of the pool.
// Called without s.mu (the breaker callbacks themselves must not take it).
func (s *Server) reactBreaker(d *device) {
	if d.breaker == nil || d.breaker.stateNow() != BreakerOpen {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.removed {
		return
	}
	if s.cfg.AutoDrain && !d.draining && s.activeLocked() > 1 {
		d.draining = true
		s.rebalanceLocked(d, true)
		d.cond.Broadcast()
	} else if !d.draining {
		s.rebalanceLocked(d, false)
	}
	s.updateBreakerGaugeLocked()
}

// updateBreakerGaugeLocked refreshes the aggregate serve_breaker_state gauge
// (the worst state across active devices). Must hold s.mu.
func (s *Server) updateBreakerGaugeLocked() {
	worst := 0
	for _, d := range s.devices {
		if d.removed || d.breaker == nil {
			continue
		}
		if st := d.breaker.stateNow(); st > worst {
			worst = st
		}
	}
	s.mBreakerState.Set(int64(worst))
}

// AddBackend grows the pool at runtime: the backend becomes a new device,
// immediately eligible for placement, and its id (stable for DrainBackend,
// Stats.Devices and the per-device metrics) is returned.
func (s *Server) AddBackend(be core.Backend) (int, error) {
	if be == nil {
		return 0, fmt.Errorf("serve: nil backend: %w", dcerr.ErrBadParam)
	}
	if c, ok := be.(core.Closer); ok && c.Closed() {
		return 0, fmt.Errorf("serve: %w", dcerr.ErrBackendClosed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("serve: %w", dcerr.ErrServerClosed)
	}
	d := s.newDevice(len(s.devices), be)
	s.devices = append(s.devices, d)
	s.runners.Add(1)
	go s.deviceLoop(d)
	s.cond.Broadcast()
	return d.id, nil
}

// DrainBackend removes a device from the pool gracefully: placement stops
// immediately, already-placed and in-flight jobs run to completion, then the
// device is retired (Stats.Devices shows it Removed) and DrainBackend
// returns. The last active device cannot be drained (ErrBadParam) — a server
// must keep one execution path. ctx bounds only the wait: on expiry the
// drain itself continues in the background.
func (s *Server) DrainBackend(ctx context.Context, id int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: %w", dcerr.ErrServerClosed)
	}
	if id < 0 || id >= len(s.devices) || s.devices[id].removed {
		s.mu.Unlock()
		return fmt.Errorf("serve: no device %d: %w", id, dcerr.ErrBadParam)
	}
	d := s.devices[id]
	if !d.draining {
		if s.activeLocked() <= 1 {
			s.mu.Unlock()
			return fmt.Errorf("serve: device %d is the last active device: %w", id, dcerr.ErrBadParam)
		}
		d.draining = true
		d.cond.Broadcast()
	}
	s.mu.Unlock()
	select {
	case <-d.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain device %d: %w", id, context.Cause(ctx))
	}
}

// proberOf returns a device's health hook, if its backend has one.
func proberOf(d *device) core.DeviceProber {
	p, _ := d.be.(core.DeviceProber)
	return p
}
