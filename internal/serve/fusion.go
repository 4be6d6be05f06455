package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/trace"
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
// Fairness: fusion never changes which job is dispatched — the heap's head
// keeps its stride-scheduling position, and only same-kind followers are
// pulled out of turn. A queued job of a different kind keeps its virtual
// finish tag and is dispatched exactly as before, so the scheduler's
// starvation-freedom is preserved (fusing followers, if anything, drains
// the queue ahead of it faster).
//
// In a pool, batches form per device: companions are collected from the
// queue (where capacity-gated placement keeps contended jobs) when the head
// starts on its device, and the whole group runs on that one device.
//
// Fusion is declined — the job runs the ordinary single path — when no
// companion is found in the queue (and within the batch window, if one is
// configured), when FusedBytesCap would be exceeded, or when every would-be
// companion was already canceled.

// fuseClass decides at admission whether a job may join a fused execution,
// returning its fusion key ("" when it cannot). A job is fusable when
// fusion is enabled (MaxFusedJobs ≥ 2), the strategy is GPUOnly (the only
// all-device-resident plan, so segments coexist on the card), the algorithm
// implements core.GPUAlg, and the job's options carry no per-run
// instrumentation — an interval hook, observer, or private metrics registry
// cannot be attributed to one member of a shared launch. The key
// groups jobs by algorithm kind and coalesce setting, because one fused run
// executes under one RunConfig.
func (s *Server) fuseClass(job Job, rc core.RunConfig) string {
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

// collectLocked moves queued jobs with the given fusion key into members,
// in dispatch (virtual finish tag) order, until MaxFusedJobs or
// FusedBytesCap stops it. Must hold s.mu.
func (s *Server) collectLocked(key string, members []*queued, bytes int64) ([]*queued, int64) {
	if len(members) >= s.cfg.MaxFusedJobs {
		return members, bytes
	}
	var cand []*queued
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.fuseKey == key {
			cand = append(cand, q)
		} else {
			kept = append(kept, q)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].vfinish != cand[j].vfinish {
			return cand[i].vfinish < cand[j].vfinish
		}
		return cand[i].seq < cand[j].seq
	})
	for _, q := range cand {
		if len(members) < s.cfg.MaxFusedJobs &&
			(s.cfg.FusedBytesCap == 0 || bytes+q.gpuBytes <= s.cfg.FusedBytesCap) {
			members = append(members, q)
			bytes += q.gpuBytes
		} else {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = s.queue[:len(kept)]
	heap.Init(&s.queue)
	s.mQueueDepth.Set(int64(len(s.queue)))
	return members, bytes
}

// removeWaiterLocked unregisters a batch-window waiter. Must hold s.mu.
func (s *Server) removeWaiterLocked(key string, w chan struct{}) {
	ws := s.fuseWaiters[key]
	for i, c := range ws {
		if c == w {
			ws[i] = ws[len(ws)-1]
			ws = ws[:len(ws)-1]
			break
		}
	}
	if len(ws) == 0 {
		delete(s.fuseWaiters, key)
	} else {
		s.fuseWaiters[key] = ws
	}
}

// runFused attempts to execute the dispatched head job as a fused run on
// its placed device. It returns false — without having settled anything
// about the head — when fusion is declined and the caller should take the
// ordinary single-job path. When it returns true the head's execution slot
// has been released and every collected member settled.
func (s *Server) runFused(d *device, head *queued) bool {
	members := []*queued{head}
	bytes := head.gpuBytes
	s.mu.Lock()
	members, bytes = s.collectLocked(head.fuseKey, members, bytes)
	if len(members) < s.cfg.MaxFusedJobs && s.cfg.BatchWindow > 0 {
		wake := make(chan struct{}, 1)
		s.fuseWaiters[head.fuseKey] = append(s.fuseWaiters[head.fuseKey], wake)
		s.mu.Unlock()
		timer := time.NewTimer(s.cfg.BatchWindow)
	window:
		for {
			select {
			case <-wake:
				s.mu.Lock()
				members, bytes = s.collectLocked(head.fuseKey, members, bytes)
				full := len(members) >= s.cfg.MaxFusedJobs
				s.mu.Unlock()
				if full {
					break window
				}
			case <-timer.C:
				break window
			}
		}
		timer.Stop()
		s.mu.Lock()
		s.removeWaiterLocked(head.fuseKey, wake)
	}
	s.mu.Unlock()

	// Members canceled while queued settle individually and never touch
	// the backend; the survivors execute.
	var live, canceled []*queued
	for _, q := range members {
		if q.ctx.Err() != nil {
			canceled = append(canceled, q)
		} else {
			live = append(live, q)
		}
	}
	if len(live) == 1 && live[0] == head && len(canceled) == 0 {
		return false // fusion declined: nothing to fuse, zero overhead
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
	if len(live) == 0 {
		// The head itself was canceled: release its slot (and its probe
		// token, if it held one).
		if head.ctx.Err() == nil {
			panic("serve: empty fused group with live head")
		}
		s.feedBreaker(d, head, verdictAbandon)
		s.mu.Lock()
		s.finishJobLocked(d, head)
		s.mu.Unlock()
		return true
	}

	now := time.Now()
	for _, q := range live {
		q.h.queueWait = now.Sub(q.wallIn).Seconds()
	}
	reps, err := s.executeFused(d, live)

	// The fused run is one device-path execution; its verdict feeds the
	// device's breaker through the head (the only member that can hold a
	// probe token).
	switch {
	case err == nil:
		s.feedBreaker(d, head, verdictSuccess)
	case errors.Is(err, dcerr.ErrDeviceFault):
		s.feedBreaker(d, head, verdictFault)
	default:
		s.feedBreaker(d, head, verdictAbandon)
	}

	for i, q := range live {
		var rep core.Report
		if i < len(reps) {
			rep = reps[i]
		}
		merr := err
		if err != nil {
			merr = fmt.Errorf("serve: job %d: %w", q.h.ID, err)
		}
		q.h.rep, q.h.err = rep, merr
	}

	s.mu.Lock()
	s.finishJobLocked(d, head)
	if len(live) >= 2 {
		s.stats.FusedRuns++
		s.stats.FusedJobs += uint64(len(live))
		s.mFusedRuns.Inc()
		s.mFusedJobs.Add(uint64(len(live)))
	}
	s.settleLocked(live...)
	s.mu.Unlock()
	return true
}

// executeFused runs the group on the head's placed device, mirroring
// runAttempt: the server's metrics registry and a trace scope are prefixed,
// the group's shared coalesce setting is re-applied, and span stamping
// covers both the fused run (one "fused" span on the head's job ID naming
// every member) and the per-member "queue"/"job" spans.
func (s *Server) executeFused(d *device, members []*queued) ([]core.Report, error) {
	be := d.be
	head := members[0]
	algs := make([]core.GPUAlg, len(members))
	for i, q := range members {
		algs[i] = q.job.Alg.(core.GPUAlg)
	}

	var opts []core.Option
	if s.cfg.Metrics != nil {
		opts = append(opts, core.WithMetrics(s.cfg.Metrics))
	}
	var scope *trace.Scope
	if s.cfg.Trace != nil {
		scope = s.cfg.Trace.Scope(head.h.ID)
		opts = append(opts, trace.Record(scope))
	}
	if strings.HasSuffix(head.fuseKey, "|coalesce") {
		opts = append(opts, core.WithCoalesce())
	}

	ctx, stop := fusedContext(members)
	defer stop()
	start := be.Now()
	reps, err := core.RunFusedGPUCtx(ctx, be, algs, opts...)
	if scope != nil {
		end := be.Now()
		ids := make([]string, len(members))
		for i, q := range members {
			ids[i] = fmt.Sprintf("%d", q.h.ID)
		}
		scope.Add(trace.Span{
			Unit: "job",
			Label: fmt.Sprintf("fused ×%d %s jobs [%s] dev%d",
				len(members), head.job.Alg.Name(), strings.Join(ids, " "), d.id),
			Start: start, End: end,
		})
		for _, q := range members {
			ms := s.cfg.Trace.Scope(q.h.ID)
			label := fmt.Sprintf("job %d %s %s n=%d dev%d", q.h.ID, q.job.Alg.Name(),
				core.FusedStrategy, q.job.Alg.N(), d.id)
			ms.Add(trace.Span{Unit: "queue", Label: label,
				Start: start - q.h.queueWait, End: start})
			ms.Add(trace.Span{Unit: "job", Label: label, Start: start, End: end})
		}
	}
	return reps, err
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
