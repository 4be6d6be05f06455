// Package sched provides an alternative, dynamic scheduling baseline for the
// ablation study: a StarPU-flavored greedy scheduler that re-splits every
// recursion level between CPU and GPU according to their estimated rates,
// shipping the GPU's share across the link each level.
//
// The paper argues (§2, §5) that for regular divide-and-conquer trees a
// tailored static division with a single round trip beats dynamic schemes
// because the dependency structure is known in advance; this executor makes
// that comparison concrete. It is deliberately transfer-naive — exactly the
// cost the advanced division is designed to avoid — while still overlapping
// CPU and GPU work within each level.
//
// Kept by the ROADMAP 3(e) audit: internal/exp's ablation driver and the
// root benchmarks run it, and EXPERIMENTS.md cites its result (the "Dynamic
// per-level scheduler" row beside "Strategy ablation", 0.60x at n=2^20).
package sched

import (
	"fmt"

	"repro/internal/core"

	"repro/internal/dcerr"
)

// RunDynamicHybrid executes the algorithm breadth-first; at every base and
// combine level it greedily assigns the GPU a share of tasks proportional to
// the units' aggregate rates (p vs γ·min(k, g)), transferring that share's
// data to the device and back around the launch. Divide levels run on the
// CPU.
func RunDynamicHybrid(be core.Backend, alg core.GPUAlg) (core.Report, error) {
	if be.GPU() == nil {
		return core.Report{}, fmt.Errorf("sched: %w", dcerr.ErrNoGPU)
	}
	L := alg.Levels()
	a := alg.Arity()
	p := float64(be.CPU().Parallelism())
	g := float64(be.GPU().Parallelism())
	gamma := be.GPUGamma()

	// split returns how many of k tasks stay on the CPU.
	split := func(k int) int {
		if float64(k) <= 2*p {
			return k // too narrow to be worth a transfer
		}
		gpuCap := gamma * g
		if float64(k) < g {
			gpuCap = gamma * float64(k)
		}
		cpuShare := p / (p + gpuCap)
		kc := int(cpuShare*float64(k) + 0.5)
		if kc < 0 {
			kc = 0
		}
		if kc > k {
			kc = k
		}
		return kc
	}

	start := be.Now()
	var steps []step

	for l := 0; l < L; l++ {
		b := alg.DivideBatch(l, 0, core.TasksAtLevel(a, l))
		steps = append(steps, func(next func()) { be.CPU().Submit(b, next) })
	}

	// hybridLevel runs one level's k tasks split across both units, with a
	// round trip for the GPU share.
	hybridLevel := func(k, kc int, cpuB core.Batch, gpuB func() core.Batch, bytes int64) step {
		return func(next func()) {
			if kc == k {
				be.CPU().Submit(cpuB, next)
				return
			}
			join := core.Join(2, next)
			be.CPU().Submit(cpuB, join)
			be.TransferToGPU(bytes, func() {
				be.GPU().Submit(gpuB(), func() {
					be.TransferToCPU(bytes, join)
				})
			})
		}
	}

	leaves := core.TasksAtLevel(a, L)
	{
		kc := split(leaves)
		steps = append(steps, hybridLevel(leaves, kc,
			alg.BaseBatch(0, kc),
			func() core.Batch { return alg.GPUBaseBatch(kc, leaves) },
			alg.GPUBytes(L, kc, leaves)))
	}
	for l := L - 1; l >= 0; l-- {
		l := l
		k := core.TasksAtLevel(a, l)
		kc := split(k)
		steps = append(steps, hybridLevel(k, kc,
			alg.CombineBatch(l, 0, kc),
			func() core.Batch { return alg.GPUCombineBatch(l, kc, k) },
			alg.GPUBytes(l, kc, k)))
	}

	completed := false
	runSeq(steps, func() { completed = true })
	be.Wait()
	if !completed {
		panic("sched: dynamic hybrid execution did not complete")
	}
	finish(alg)
	return core.Report{
		Algorithm: alg.Name(),
		Strategy:  "dynamic-hybrid",
		Seconds:   be.Now() - start,
	}, nil
}

type step func(next func())

func runSeq(steps []step, done func()) {
	var at func(i int)
	at = func(i int) {
		if i == len(steps) {
			done()
			return
		}
		steps[i](func() { at(i + 1) })
	}
	at(0)
}

func finish(alg core.Alg) {
	type finisher interface{ Finish() }
	if f, ok := alg.(finisher); ok {
		f.Finish()
	}
}
