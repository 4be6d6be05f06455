package serve

// Reliability policies and degradation: per-job retry/deadline/hedge/
// fallback options, the per-device circuit breakers, and the policy-aware
// execution path that replaces a bare executor call. DESIGN.md §12, §13.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/trace"
)

// FallbackMode selects a job's degradation path; see WithFallback.
type FallbackMode = core.Fallback

// CPUOnly re-runs a device-failed job breadth-first on the CPU engine with
// bit-identical results, and keeps the job admissible while the circuit
// breakers have every GPU path open.
const CPUOnly = core.FallbackCPUOnly

// WithRetry re-executes a job up to max more times when an attempt fails
// with a device fault (errors.Is(err, ErrDeviceFault)), pausing backoff
// between attempts. Each re-execution runs on a fresh instance from
// Job.Fresh — required, because a faulted attempt may have partially
// mutated its instance — so Submit rejects a retry policy without one.
// When every attempt faults, the job fails with an error matching both
// ErrRetriesExhausted and ErrDeviceFault. Cancellation and deadlines are
// never retried.
func WithRetry(max int, backoff time.Duration) core.Option {
	return func(c *core.RunConfig) {
		c.Reliability.MaxRetries = max
		c.Reliability.Backoff = backoff
	}
}

// WithDeadline bounds the job's total execution budget (all attempts,
// hedges and fallbacks included) from dispatch. On expiry the running
// attempt stops at its next level boundary and the job fails with an error
// matching ErrCanceled, exactly like a caller-side context deadline —
// but scoped per job rather than per submission context.
func WithDeadline(d time.Duration) core.Option {
	return func(c *core.RunConfig) { c.Reliability.Deadline = d }
}

// WithHedge duplicates a straggling GPU-bound job onto the CPU path: if the
// first attempt has not finished after the given delay, a breadth-first CPU
// duplicate starts on a fresh instance (Job.Fresh, required) and the first
// clean result wins; the loser is canceled and drained before the job
// settles. Both paths compute bit-identical results, so the winner's
// identity (Handle.HedgeWon) changes latency only. Hedging is ignored on
// devices that are not core.Autonomous: the single-goroutine simulator
// cannot race two executors.
func WithHedge(after time.Duration) core.Option {
	return func(c *core.RunConfig) {
		c.Reliability.Hedge = after
		c.Reliability.HedgeSet = true
	}
}

// WithFallback selects the job's degradation path once its device attempts
// are spent (after retries, if any). With CPUOnly the job transparently
// re-runs breadth-first on the CPU engine — on a fresh instance from
// Job.Fresh (required) — and succeeds with bit-identical results;
// Handle.FellBack reports it. A CPUOnly job is also admitted (directly to
// the CPU path) while every device's breaker is shedding GPU-bound work.
func WithFallback(m FallbackMode) core.Option {
	return func(c *core.RunConfig) { c.Reliability.Fallback = m }
}

// Circuit breaker states, exported via Stats.BreakerState (the worst state
// across active devices), Stats.Devices and the serve_breaker_state gauges.
const (
	// BreakerClosed is the healthy state: GPU-bound jobs admitted freely.
	BreakerClosed = 0
	// BreakerHalfOpen admits exactly one probe job to test the device.
	BreakerHalfOpen = 1
	// BreakerOpen sheds the device's GPU-bound placement (jobs reroute to
	// other devices, fall back to the CPU path, or fail with ErrDegraded)
	// until the cooldown elapses.
	BreakerOpen = 2
)

// breaker is one device's circuit breaker (DESIGN.md §12): it trips open
// after `threshold` consecutive device-fault attempts, sheds GPU-bound
// placement while open, and after `cooldown` lets one probe job through
// (consulting the backend's core.DeviceProber first, when implemented);
// the probe's outcome closes or reopens it. It takes no server lock, so it
// is safe to call with or without Server.mu held — but its callbacks run
// under b.mu and must never take Server.mu.
type breaker struct {
	threshold int
	cooldown  time.Duration
	onState   func(state int64) // called on every transition, under b.mu
	onTrip    func()            // called on every closed/half-open → open

	mu       sync.Mutex
	state    int
	fails    int // consecutive device faults while closed
	openedAt time.Time
	probing  bool // a half-open probe job is in flight
}

func newBreaker(threshold int, cooldown time.Duration, onState func(int64), onTrip func()) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, onState: onState, onTrip: onTrip}
}

// setState transitions and notifies. Must hold b.mu.
func (b *breaker) setState(st int) {
	if b.state == st {
		return
	}
	b.state = st
	if b.onState != nil {
		b.onState(int64(st))
	}
}

// canAdmit is the non-mutating admission peek used at Submit time and for
// placement filtering: it reports whether admit would plausibly succeed,
// without consuming the half-open probe slot or touching the device prober.
func (b *breaker) canAdmit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		return time.Since(b.openedAt) >= b.cooldown
	case BreakerHalfOpen:
		return !b.probing
	default:
		return true
	}
}

// admit decides whether a GPU-bound job may take this device's path now.
// probe reports that the job was admitted as the half-open probe and must
// report its outcome through result or abandon.
func (b *breaker) admit(p core.DeviceProber) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false, false
		}
		// Cooldown over: ask the backend first — a device that cannot even
		// answer a health probe is not worth risking a job on.
		if p != nil {
			if err := p.ProbeDevice(); err != nil {
				b.openedAt = time.Now()
				return false, false
			}
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true, true
	case BreakerHalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	default:
		return true, false
	}
}

// result reports one GPU-bound attempt's verdict. A device fault in
// half-open — or the threshold-th consecutive one while closed — opens the
// breaker; a clean probe closes it.
func (b *breaker) result(probe, deviceFault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if deviceFault {
		b.fails++
		if b.state == BreakerHalfOpen || (b.threshold > 0 && b.fails >= b.threshold) {
			if b.state != BreakerOpen && b.onTrip != nil {
				b.onTrip()
			}
			b.setState(BreakerOpen)
			b.openedAt = time.Now()
			b.fails = 0
		}
		return
	}
	b.fails = 0
	if probe && b.state == BreakerHalfOpen {
		b.setState(BreakerClosed)
	}
}

// abandon releases a probe slot without a verdict (the probe job was
// canceled before reaching the device); the next admit grants a new probe.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// stateNow snapshots the current state.
func (b *breaker) stateNow() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// gpuBound reports whether the strategy takes the device path (and is
// therefore subject to faults, breaker shedding, hedging and fallback).
func gpuBound(st Strategy) bool {
	return st == BasicHybrid || st == AdvancedHybrid || st == GPUOnly
}

// Breaker verdicts fed by the policy loop.
const (
	verdictSuccess = iota
	verdictFault
	verdictAbandon
)

// feedBreaker reports one device-path attempt's verdict to the device's
// breaker and consumes the job's probe token (a probe reports exactly
// once). A fault verdict also runs the pool's trip reaction (auto-drain),
// so it must be called without s.mu held.
func (s *Server) feedBreaker(d *device, q *queued, verdict int) {
	if d.breaker == nil {
		return
	}
	probe := q.probe
	q.probe = false
	switch verdict {
	case verdictSuccess:
		d.breaker.result(probe, false)
	case verdictFault:
		d.breaker.result(probe, true)
		s.reactBreaker(d)
	default:
		if probe {
			d.breaker.abandon()
		}
	}
	s.mu.Lock()
	s.updateBreakerGaugeLocked()
	s.mu.Unlock()
}

// sleepCtx pauses for d or until ctx is canceled, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// errRequeued is the policy loop's signal that the job never started: its
// device's breaker tripped between placement and the first attempt while
// another device can still serve the GPU path, so run() should push it back
// to the queue instead of settling the handle.
var errRequeued = errors.New("serve: requeue on healthier device")

// executeReliable runs one dispatched job on its device under the job's
// reliability policy: deadline scoping, the attempt/retry loop with hedging,
// breaker feedback, and the CPU fallback. It replaces the bare executor
// call; a job with no policy makes exactly one attempt, so the plain path
// is unchanged.
func (s *Server) executeReliable(d *device, q *queued) (core.Report, error) {
	be := d.be
	ctx := q.ctx
	if q.rc.Reliability.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.rc.Reliability.Deadline)
		defer cancel()
	}
	var scope *trace.Scope
	if s.cfg.Trace != nil {
		scope = s.cfg.Trace.Scope(q.h.ID)
	}
	start := be.Now()
	rep, err := s.policyLoop(ctx, d, q, scope)
	if scope != nil && !errors.Is(err, errRequeued) {
		s.jobSpans(d, q, scope, start, be.Now())
	}
	return rep, err
}

// jobSpans records a finished job's "queue" and "job" spans. A fused
// group's lead also records one "fused" job span naming every member, and
// each member gets its own queue and job spans, labeled core.FusedStrategy.
func (s *Server) jobSpans(d *device, q *queued, scope *trace.Scope, start, end float64) {
	members, strat := []*queued{q}, any(q.job.Strategy)
	if g := q.plan.group; g != nil {
		members, strat = g, core.FusedStrategy
		ids := make([]string, len(g))
		for i, m := range g {
			ids[i] = strconv.FormatUint(m.h.ID, 10)
		}
		scope.Add(trace.Span{Unit: "job",
			Label: fmt.Sprintf("fused ×%d %s jobs [%s] dev%d",
				len(g), q.job.Alg.Name(), strings.Join(ids, " "), d.id),
			Start: start, End: end})
	}
	for _, m := range members {
		label := fmt.Sprintf("job %d %s %s n=%d dev%d", m.h.ID, m.job.Alg.Name(), strat, m.job.Alg.N(), d.id)
		if n := m.h.attempts; n > 1 {
			label = fmt.Sprintf("%s (%d attempts)", label, n)
		}
		ms := scope
		if m != q {
			ms = s.cfg.Trace.Scope(m.h.ID)
		}
		ms.Add(trace.Span{Unit: "queue", Label: label, Start: start - m.h.queueWait, End: start})
		ms.Add(trace.Span{Unit: "job", Label: label, Start: start, End: end})
	}
}

// shouldRequeue reports whether a job whose device just shed it can instead
// go back to the queue: some other active device would admit GPU-bound
// work.
func (s *Server) shouldRequeue(d *device) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anyHealthyGPULocked(d)
}

// policyLoop is the attempt loop. Attempt 1 runs the submitted instance
// (hedged if configured); attempts 2..1+MaxRetries run fresh instances
// after device faults; then the CPU fallback, if configured, gets the last
// word. GPU-bound verdicts feed the device's circuit breaker.
func (s *Server) policyLoop(ctx context.Context, d *device, q *queued, scope *trace.Scope) (core.Report, error) {
	pol := q.rc.Reliability
	gpu := gpuBound(q.plan.strat)
	forceCPU := q.forceCPU

	// First-attempt breaker check: the device's breaker may have tripped
	// since placement (or healed — a placed probe keeps its token).
	if gpu && !forceCPU && !q.probe && d.breaker != nil {
		ok, probe := d.breaker.admit(proberOf(d))
		switch {
		case ok:
			q.probe = probe
		case s.shouldRequeue(d):
			return core.Report{}, errRequeued
		case pol.Fallback == core.FallbackCPUOnly:
			forceCPU = true
		default:
			s.noteDegraded()
			return q.neverRan(shedAtDispatch, dcerr.ErrDegraded)
		}
	}
	if forceCPU {
		return s.fallback(ctx, d, q, scope, q.job.Alg)
	}

	attempts := 1 + pol.MaxRetries
	var lastRep core.Report
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		alg := q.job.Alg
		if attempt > 1 {
			var ferr error
			if alg, ferr = q.job.Fresh(); ferr != nil {
				return lastRep, fmt.Errorf("serve: job %d attempt %d: fresh instance: %w", q.h.ID, attempt, ferr)
			}
		}
		var rep core.Report
		var err, devErr error
		if attempt == 1 && pol.HedgeSet && gpu && d.auto && q.job.Fresh != nil {
			rep, err, devErr = s.hedgedAttempt(ctx, d, q, scope, alg)
		} else {
			rep, err = s.runAttempt(ctx, d, q, scope, alg, q.plan, attempt, "attempt")
			devErr = err
			if err == nil {
				q.h.resultAlg = alg
			}
		}
		q.h.attempts = attempt
		if gpu {
			switch {
			case devErr == nil:
				s.feedBreaker(d, q, verdictSuccess)
			case errors.Is(devErr, dcerr.ErrDeviceFault):
				s.feedBreaker(d, q, verdictFault)
			default:
				s.feedBreaker(d, q, verdictAbandon)
			}
		}
		if err == nil {
			return rep, nil
		}
		lastRep, lastErr = rep, err
		if attempt > 1 {
			// A failed retry instance is server-created garbage (the
			// executor has returned and a failed attempt's data is
			// invalid): hand its buffers back to the pool. Attempt 1 runs
			// the caller-owned q.job.Alg and is never released here.
			core.ReleaseAlg(alg)
		}
		if ctx.Err() != nil || !errors.Is(err, dcerr.ErrDeviceFault) {
			break
		}
		if attempt < attempts {
			s.noteRetry()
			if serr := sleepCtx(ctx, pol.Backoff); serr != nil {
				return lastRep, fmt.Errorf("serve: job %d: canceled between attempts: %w (%w)",
					q.h.ID, dcerr.ErrCanceled, serr)
			}
		}
	}

	fallbackable := errors.Is(lastErr, dcerr.ErrDeviceFault) || errors.Is(lastErr, dcerr.ErrNoGPU)
	if pol.Fallback == core.FallbackCPUOnly && fallbackable && ctx.Err() == nil {
		alg, ferr := q.job.Fresh()
		if ferr != nil {
			return lastRep, fmt.Errorf("serve: job %d fallback: fresh instance: %w", q.h.ID, ferr)
		}
		rep, err := s.fallback(ctx, d, q, scope, alg)
		if err != nil {
			core.ReleaseAlg(alg) // failed fallback instance: server-created garbage
			return rep, fmt.Errorf("serve: job %d: CPU fallback failed after %w (device: %w): %w",
				q.h.ID, dcerr.ErrRetriesExhausted, lastErr, err)
		}
		return rep, nil
	}
	if pol.MaxRetries > 0 && errors.Is(lastErr, dcerr.ErrDeviceFault) && ctx.Err() == nil {
		return lastRep, fmt.Errorf("serve: job %d: %d attempts: %w: %w",
			q.h.ID, q.h.attempts, dcerr.ErrRetriesExhausted, lastErr)
	}
	return lastRep, lastErr
}

// fallback runs the job breadth-first on the device's CPU engine — the
// degradation path — and marks the handle when it delivers the result.
func (s *Server) fallback(ctx context.Context, d *device, q *queued, scope *trace.Scope, alg core.Alg) (core.Report, error) {
	s.noteFallback()
	q.h.attempts++
	rep, err := s.runAttempt(ctx, d, q, scope, alg, plan{strat: BreadthFirstCPU}, q.h.attempts, "fallback")
	if err == nil {
		q.h.fellBack = true
		q.h.resultAlg = alg
	}
	return rep, err
}

// errHedgeUnresolved marks a hedge win whose device path had not settled
// when the winner returned: the breaker must treat the attempt as abandoned
// (a hedge win must not vouch for — or against — the device).
var errHedgeUnresolved = errors.New("serve: hedge won before the device path settled")

// hedgedAttempt races attempt 1 against a delayed breadth-first CPU
// duplicate on a fresh instance. The first clean result wins, cancels the
// other path, and returns immediately; the loser is drained by a goroutine
// registered on the server's job WaitGroup, so Close still waits for every
// executor to come home. devErr is the device path's own verdict (for the
// breaker), or errHedgeUnresolved when the winner outran it.
func (s *Server) hedgedAttempt(ctx context.Context, d *device, q *queued, scope *trace.Scope, alg core.Alg) (rep core.Report, err, devErr error) {
	type outcome struct {
		rep    core.Report
		err    error
		alg    core.Alg
		hedged bool
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()

	resc := make(chan outcome, 2)
	go func() {
		r, e := s.runAttempt(pctx, d, q, scope, alg, q.plan, 1, "attempt")
		resc <- outcome{r, e, alg, false}
	}()
	inFlight := 1
	hedged := false
	timer := time.NewTimer(q.rc.Reliability.Hedge)
	defer timer.Stop()

	var won, primary *outcome
	for won == nil && inFlight > 0 {
		select {
		case o := <-resc:
			inFlight--
			if !o.hedged {
				primary = &o
			}
			if o.err == nil {
				won = &o
				pcancel()
				hcancel()
			} else if o.hedged {
				// A failed hedge instance is server-created garbage; its
				// executor has returned, so the lease can end here.
				core.ReleaseAlg(o.alg)
			}
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			halg, ferr := q.job.Fresh()
			if ferr != nil {
				continue // cannot hedge; the primary races alone
			}
			inFlight++
			go func() {
				r, e := s.runAttempt(hctx, d, q, scope, halg, plan{strat: BreadthFirstCPU}, 1, "hedge")
				resc <- outcome{r, e, halg, true}
			}()
		}
	}
	if won == nil {
		return primary.rep, primary.err, primary.err
	}
	if inFlight > 0 {
		// The loser is still executing under a canceled context. resc is
		// buffered, so its send cannot block; the drain exists to keep
		// Close from tearing the backend down under a live executor — and
		// to return the loser's buffers once it comes home. Only
		// server-created instances are released: the caller's Job.Alg and
		// the winner stay untouched.
		wonAlg := won.alg
		callerAlg := q.job.Alg
		s.jobs.Add(1)
		go func(n int) {
			defer s.jobs.Done()
			for i := 0; i < n; i++ {
				o := <-resc
				if o.alg != wonAlg && o.alg != callerAlg {
					core.ReleaseAlg(o.alg)
				}
			}
		}(inFlight)
	}
	if won.hedged {
		s.noteHedgeWin()
		q.h.hedgeWon = true
	}
	q.h.resultAlg = won.alg
	switch {
	case primary != nil:
		return won.rep, nil, primary.err
	default:
		return won.rep, nil, errHedgeUnresolved
	}
}

// runAttempt executes one attempt of a job under plan p on the job's placed
// device: on the device's backend, or on a fault-injecting view of it when
// the device has an injector. The job's options are prefixed with the
// server's listeners on the run's intervals — the metrics registry, the
// per-job trace scope and, once auto-strategy is active, the sample that
// feeds calibration — which see injected faults like real ones. Hooks chain,
// so a job's own WithIntervals adds a listener and opts out of nothing; a
// job's own WithMetrics replaces the server's registry for that job.
func (s *Server) runAttempt(ctx context.Context, d *device, q *queued, scope *trace.Scope, alg core.Alg,
	p plan, attempt int, kind string) (core.Report, error) {
	be := d.be
	if d.faults != nil {
		be = d.faults.Wrap(be)
	}
	// A fused group feeds no calibration: its launches are shared by k
	// members, so its cost samples no solo strategy the tuner prices.
	autoTag, feed := q.job.Strategy == Auto, s.autoActive.Load() && p.group == nil
	var smp *sample
	opts := q.opts
	if s.cfg.Metrics != nil || scope != nil || feed || autoTag {
		pre := make([]core.Option, 0, 4)
		if s.cfg.Metrics != nil {
			pre = append(pre, core.WithMetrics(s.cfg.Metrics))
		}
		if autoTag {
			pre = append(pre, core.WithAutoStrategy(q.plan.strat.String()))
		}
		if scope != nil {
			pre = append(pre, trace.Record(scope))
		}
		if feed {
			smp = new(sample)
			pre = append(pre, core.WithIntervals(smp.add))
		}
		opts = append(pre, q.opts...)
	}
	start := be.Now()
	rep, err := runStrategy(ctx, be, alg, p, opts)
	if err == nil && !rep.Partial && smp != nil {
		s.feedAutotune(d, alg, p, smp, rep)
	}
	if scope != nil {
		verdict := "ok"
		switch {
		case err == nil:
		case errors.Is(err, dcerr.ErrDeviceFault):
			verdict = "device-fault"
		case errors.Is(err, dcerr.ErrCanceled):
			verdict = "canceled"
		default:
			verdict = "failed"
		}
		scope.Add(trace.Span{Unit: "attempt",
			Label: fmt.Sprintf("job %d %s %d %s %s dev%d", q.h.ID, kind, attempt, p.strat, verdict, d.id),
			Start: start, End: be.Now()})
	}
	return rep, err
}

// Reliability event accounting (atomics: the breaker callbacks run under
// the breaker's own lock, so none of these may take Server.mu).
func (s *Server) noteRetry()    { s.nRetries.Add(1); s.mRetries.Inc() }
func (s *Server) noteFallback() { s.nFallbacks.Add(1); s.mFallbacks.Inc() }
func (s *Server) noteHedgeWin() { s.nHedgeWins.Add(1); s.mHedgeWins.Inc() }
func (s *Server) noteDegraded() { s.nDegraded.Add(1); s.mDegraded.Inc() }
