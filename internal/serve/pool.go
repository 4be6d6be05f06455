package serve

// Backend pool: load-aware placement, runtime topology control (AddBackend /
// DrainBackend) and per-device health. DESIGN.md §13.
//
// One virtual-time heap orders every queued job, and placement happens only
// at its head: whenever work or capacity appears (Submit, a job releasing
// its slot, AddBackend), the job with the smallest virtual finish tag takes
// a free execution slot on the device with the least modeled backlog and
// starts there. A device's backlog is the sum of its in-flight jobs' modeled
// sequential costs (internal/model, via the algorithms' ModelF/ModelLeaf
// hooks; jobs without a cost model count N·(L+1)); ties go to the lower id.
// Under contention jobs accumulate in the heap, where both the fairness order and
// job fusion work exactly as in the single-backend server.

import (
	"container/heap"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
)

// device is one pool member: a backend plus its execution slots, health
// (circuit breaker, fault injector) and drain state. All mutable fields are
// guarded by Server.mu except the breaker (own lock) and the trip counter
// (atomic, incremented under the breaker's lock).
type device struct {
	id   int
	be   core.Backend
	cap  int  // execution slots; 1 for non-autonomous backends
	auto bool // backend runs submitted work on its own goroutines

	inflight int
	work     float64 // modeled backlog of the jobs in flight, for placement

	draining bool          // no new placements; drains to removal
	removed  bool          // drained and gone; kept in the slice for ids
	drained  chan struct{} // closed when the drain completes

	breaker *breaker
	faults  *faults.Injector

	placements uint64
	trips      atomic.Uint64

	mPlacements   *metrics.Counter
	mBreakerState *metrics.Gauge
	mBreakerTrips *metrics.Counter
}

// DeviceStats is one device's slice of a Stats snapshot.
type DeviceStats struct {
	// ID is the device's stable pool index (AddBackend order).
	ID int
	// InFlight is the device's current occupancy.
	InFlight int
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
	d.faults = s.cfg.Faults
	if in, ok := s.cfg.DeviceFaults[id]; ok {
		d.faults = in
	}
	if reg := s.cfg.Metrics; reg != nil {
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

// anyHealthyGPULocked reports whether some active device other than except
// (nil for any device) would admit a GPU-bound job right now (breaker
// closed, probing, or past cooldown). Must hold s.mu.
func (s *Server) anyHealthyGPULocked(except *device) bool {
	for _, d := range s.devices {
		if d == except || d.removed || d.draining {
			continue
		}
		if d.breaker == nil || d.breaker.canAdmit() {
			return true
		}
	}
	return false
}

// pumpLocked places queued jobs, head first, until the head has to wait for
// a slot. Called wherever work or capacity appears. Must hold s.mu.
func (s *Server) pumpLocked() {
	for len(s.queue) > 0 && s.placeHeadLocked() {
	}
	s.mQueueDepth.Set(int64(len(s.queue)))
}

// placeHeadLocked tries to place the heap's head job on a device and start
// it there. It returns false when nothing changed: the head stays queued
// (preserving the stride order) until a slot frees. Must hold s.mu; may
// settle a shed job. A true return means the caller should re-evaluate (a
// job was started, rerouted to the CPU path, or shed).
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
		if d.inflight >= d.cap {
			continue
		}
		if best == nil || d.work < best.work || (d.work == best.work && d.id < best.id) {
			best = d
		}
	}
	if best == nil {
		if gpuCapable || !gpu {
			return false // capacity wait: the head keeps its heap position
		}
		// GPU-bound head with every breaker open: degrade, as Submit would.
		if q.rc.Reliability.Fallback == core.FallbackCPUOnly {
			q.forceCPU = true
			return true // re-place as a CPU-path job
		}
	} else if gpu && best.breaker != nil {
		ok, probe := best.breaker.admit(proberOf(best))
		if !ok {
			return true // raced with a state change; re-evaluate
		}
		q.probe = probe
	}
	heap.Pop(&s.queue)
	s.pass = max(s.pass, q.vfinish)
	if best == nil {
		s.noteDegraded()
		q.h.queueWait = time.Since(q.wallIn).Seconds()
		q.h.rep, q.h.err = q.neverRan(shedAtDispatch, dcerr.ErrDegraded)
		s.settleLocked(q)
		return true
	}
	if q.job.Strategy == Auto {
		// Price the job against the chosen device's calibration. A breaker
		// that would shed GPU-bound work restricts pricing to the CPU path;
		// a GPU-bound choice then takes the admission slot a fixed GPU-bound
		// job takes above.
		s.decideAutoLocked(best, q, best.breaker == nil || best.breaker.canAdmit())
		if gpuBound(q.plan.strat) && best.breaker != nil {
			if ok, probe := best.breaker.admit(proberOf(best)); ok {
				q.probe = probe
			} else {
				// Slammed shut between the peek and the admit: re-decide on
				// the CPU path rather than spinning on this device.
				s.decideAutoLocked(best, q, false)
			}
		}
	} else {
		q.plan = plan{strat: q.job.Strategy, crossover: q.job.Crossover, alpha: q.job.Alpha, y: q.job.Y}
	}
	best.inflight++
	best.work += q.cost
	best.placements++
	best.mPlacements.Inc()
	s.inflight++
	s.mInFlight.Set(int64(s.inflight))
	s.jobs.Add(1)
	go s.run(best, q)
	return true
}

// finishJobLocked releases a device execution slot: a draining device that
// has just gone idle retires, and the freed slot takes the next queued job.
// Must hold s.mu.
func (s *Server) finishJobLocked(d *device, q *queued) {
	d.inflight--
	s.inflight--
	d.work -= q.cost
	s.mInFlight.Set(int64(s.inflight))
	s.retireIfDrainedLocked(d)
	s.pumpLocked()
}

// retireIfDrainedLocked completes a drain once the device's last job has
// left it. Must hold s.mu.
func (s *Server) retireIfDrainedLocked(d *device) {
	if !d.draining || d.inflight > 0 {
		return
	}
	d.draining = false
	d.removed = true
	s.stats.Drains++
	s.mDrains.Inc()
	close(d.drained)
}

// reactBreaker runs the pool's trip reaction after a device-fault verdict:
// with WithAutoDrain, when another device remains, a device whose breaker
// is open drains itself out of the pool. Placed jobs whose first attempt
// finds the breaker open go back to the queue on their own (errRequeued).
// Called without s.mu (the breaker callbacks themselves must not take it).
func (s *Server) reactBreaker(d *device) {
	if !s.cfg.AutoDrain || d.breaker == nil || d.breaker.stateNow() != BreakerOpen {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !d.removed && !d.draining && s.activeLocked() > 1 {
		d.draining = true
		s.retireIfDrainedLocked(d)
	}
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
	s.pumpLocked()
	return d.id, nil
}

// DrainBackend removes a device from the pool gracefully: placement stops
// immediately, in-flight jobs run to completion, then the device is retired
// (Stats.Devices shows it Removed) and DrainBackend returns. The last active device cannot be drained (ErrBadParam) — a server
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
		s.retireIfDrainedLocked(d)
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
