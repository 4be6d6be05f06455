package serve

import (
	"container/heap"
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
)

// Job fusion. When the stride scheduler starts a GPUOnly job whose
// algorithm kind matches other queued GPUOnly jobs, the started job — the
// head — absorbs up to MaxFusedJobs-1 of them and the whole group executes
// as one fused breadth-first run (core.RunFusedGPUCtx) on the head's placed
// device: one kernel launch per recursion level across every member,
// double-buffered pipelined transfers, per-member Reports. This generalizes
// the paper's launch amortization (§4) across jobs, which is what the
// serving layer's small-job hot path needs: k fused jobs pay one launch per
// level instead of k.
//
// The group is one attempt. It takes the solo job's path — executeReliable,
// policyLoop, runAttempt, runStrategy — with the group carried in the plan,
// so it gets the device's fault injector, the server's metrics and trace
// prefix, the head's own options, one breaker verdict and the queue, job and
// attempt spans. It feeds no calibration sample: a fused launch spreads its
// cost over k members, which samples no solo strategy the tuner prices.
//
// Fairness: fusion never changes which job is dispatched — the heap's head
// keeps its stride-scheduling position, and only same-kind followers are
// pulled out of turn. A queued job of a different kind keeps its virtual
// finish tag and is dispatched exactly as before, so the scheduler's
// starvation-freedom is preserved (fusing followers, if anything, drains
// the queue ahead of it faster).
//
// In a pool, batches form per device: companions are collected from the
// queue (where capacity-gated placement keeps contended jobs) when the head
// starts on its device, and the whole group runs on that one device. Only
// jobs already queued fuse, so fusion adds no latency; a group left with
// one live member runs that member's own gpu-only plan.

// fuseClass decides at admission whether a job may join a fused execution,
// returning its fusion key ("" when it cannot). A job is fusable when
// fusion is enabled (MaxFusedJobs ≥ 2), the strategy is GPUOnly (the only
// all-device-resident plan, so segments coexist on the card), the algorithm
// implements core.GPUAlg, and the job's options carry no per-run
// instrumentation — an interval hook, observer, or private metrics registry
// cannot be attributed to one member of a shared launch. The key
// groups jobs by algorithm kind and coalesce setting, because one fused run
// executes under one RunConfig.
func (s *Server) fuseClass(job Job, rc *core.RunConfig) string {
	if s.cfg.MaxFusedJobs < 2 || job.Strategy != GPUOnly {
		return ""
	}
	if _, ok := job.Alg.(core.GPUAlg); !ok {
		return ""
	}
	if rc.Intervals != nil || rc.Observe != nil || rc.Metrics != nil {
		return ""
	}
	// A reliability policy needs per-job attempt control (retry, hedge,
	// fallback, deadline scoping), which a shared fused launch cannot give
	// one member; such jobs always run solo.
	if !rc.Reliability.Zero() {
		return ""
	}
	key := job.Alg.Name()
	if rc.Coalesce {
		key += "|coalesce"
	}
	return key
}

// collectLocked moves up to MaxFusedJobs-1 queued jobs with the head's
// fusion key out of the queue, in dispatch (virtual finish tag) order, and
// returns them after the head. Must hold s.mu.
func (s *Server) collectLocked(head *queued) []*queued {
	var cand []*queued
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.fuseKey == head.fuseKey {
			cand = append(cand, q)
		} else {
			kept = append(kept, q)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].vfinish != cand[j].vfinish {
			return cand[i].vfinish < cand[j].vfinish
		}
		return cand[i].h.ID < cand[j].h.ID
	})
	n := min(len(cand), s.cfg.MaxFusedJobs-1)
	kept = append(kept, cand[n:]...)
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = s.queue[:len(kept)]
	heap.Init(&s.queue)
	s.mQueueDepth.Set(int64(len(s.queue)))
	return append([]*queued{head}, cand[:n]...)
}

// group gathers the placed head's fusion companions and returns the job
// that makes the attempt on the head's slot. Members canceled while queued
// settle individually and never touch the backend. The survivors' first
// member leads — the head, or, when the head itself was canceled, its first
// live companion, which inherits the head's plan and probe token — and, when
// two or more survive, its plan carries the group. When every member was
// canceled the head leads, and run settles it like any job canceled while
// queued.
func (s *Server) group(head *queued) *queued {
	s.mu.Lock()
	members := s.collectLocked(head)
	s.mu.Unlock()
	if len(members) == 1 {
		return head
	}
	var live, canceled []*queued
	for _, q := range members {
		if q.ctx.Err() != nil {
			canceled = append(canceled, q)
		} else {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		live, canceled = canceled[:1], canceled[1:]
	}
	if len(canceled) > 0 {
		for _, q := range canceled {
			q.h.queueWait = time.Since(q.wallIn).Seconds()
			q.h.rep, q.h.err = q.neverRan(canceledWhileQueued, dcerr.ErrCanceled)
		}
		s.mu.Lock()
		s.settleLocked(canceled...)
		s.mu.Unlock()
	}
	lead := live[0]
	if lead != head {
		lead.plan, lead.probe, head.probe = head.plan, head.probe, false
	}
	if len(live) > 1 {
		lead.plan.group = live
	}
	return lead
}

// runFused is runStrategy's fused case: the group's members run as one
// core.RunFusedGPUCtx execution, and each member's Report is written to its
// handle; the lead's (group[0]) is also returned. The run stops only once
// every member's submission context is canceled (fusedContext).
func runFused(be core.Backend, group []*queued, opts []core.Option) (core.Report, error) {
	algs := make([]core.GPUAlg, len(group))
	for i, q := range group {
		algs[i] = q.job.Alg.(core.GPUAlg)
	}
	ctx, stop := fusedContext(group)
	defer stop()
	reps, err := core.RunFusedGPUCtx(ctx, be, algs, opts...)
	for i, q := range group {
		if i < len(reps) {
			q.h.rep = reps[i]
		}
	}
	return group[0].h.rep, err
}

// fusedContext derives the group's execution context: it cancels only when
// every member's submission context has been canceled, because the fused
// run is all-or-nothing — as long as one member still wants its result, the
// run must proceed. Members submitted with contexts that can never cancel
// keep the fused run alive unconditionally. The returned stop releases the
// watchers.
func fusedContext(members []*queued) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(members)))
	stops := make([]func() bool, 0, len(members))
	for _, q := range members {
		stops = append(stops, context.AfterFunc(q.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, st := range stops {
			st()
		}
		cancel()
	}
}
