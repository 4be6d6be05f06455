package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	hybriddc "repro"
	"repro/internal/api"
	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/workload"
)

// runProbes times single layers in isolation, the same way whatever the
// workload: the part of the per-layer list that does not depend on traffic.
// Each number is the steady value over repetitions (see steadyShare). A probe
// that cannot run leaves its metrics out, which reads as 0.
func runProbes(quick bool) map[string]float64 {
	m := map[string]float64{}
	probeCodec(m, quick)
	probeServe(m, quick)
	probeAutotune(m, quick)
	probeNative(m, quick)
	probeMempool(m)
	return m
}

// steadyNS times fn reps times and returns the steady time in nanoseconds.
func steadyNS(reps int, fn func()) float64 {
	took := make([]float64, reps)
	for i := range took {
		t0 := time.Now()
		fn()
		took[i] = float64(time.Since(t0).Nanoseconds())
	}
	return steadyOf(took)
}

// probeCodec: the JSON wire types at 2^18 elements and the binary frames at
// 2^20, per element.
func probeCodec(m map[string]float64, quick bool) {
	jn, fn, reps := 1<<18, 1<<20, 5
	if quick {
		jn, fn, reps = 1<<12, 1<<12, 3
	}
	req := api.JobRequest{Algorithm: "mergesort", Data: workload.Uniform(jn, 1), Strategy: "auto"}
	m["api.json_encode_ns_per_elem"] = steadyNS(reps, func() { json.Marshal(req) }) / float64(jn)
	raw, err := json.Marshal(api.JobResult{ID: 1, Sorted: req.Data})
	if err != nil {
		return
	}
	m["api.json_decode_ns_per_elem"] = steadyNS(reps, func() {
		var res api.JobResult
		json.Unmarshal(raw, &res)
	}) / float64(jn)

	data := workload.Uniform(fn, 2)
	var buf bytes.Buffer
	m["api.frame_write_ns_per_elem"] = steadyNS(reps, func() {
		buf.Reset()
		api.WriteInt32Frame(&buf, data)
	}) / float64(fn)
	wide := make([]int64, fn)
	buf.Reset()
	if err := api.WriteInt64Frame(&buf, wide); err != nil {
		return
	}
	frame := buf.Bytes()
	m["api.frame_read_ns_per_elem"] = steadyNS(reps, func() {
		out, _ := api.ReadInt64Frame(bytes.NewReader(frame), 0)
		mempool.Int64s.Put(out)
	}) / float64(fn)
}

// probeServe: one mergesort of 2^12 through an in-process server, against
// the same executor called directly. The difference is what the server adds
// to a job; the allocation count is the whole served job's (build, submit,
// wait, release).
func probeServe(m map[string]float64, quick bool) {
	jobs := 2000
	if quick {
		jobs = 50
	}
	be, srv, err := nativeServer(nil)
	if err != nil {
		return
	}
	defer be.Close()
	defer srv.Close()
	j := newRefJob("mergesort", 1<<12, 3)
	served := func() {
		alg, _ := j.alg()
		if h, err := srv.Submit(context.Background(), hybriddc.JobSpec{Alg: alg, Strategy: hybriddc.JobBreadthFirstCPU}); err == nil {
			h.Report()
		}
		release(alg)
	}
	direct := func() {
		alg, _ := j.alg()
		hybriddc.RunBreadthFirstCPUCtx(context.Background(), be, alg)
		release(alg)
	}
	steadyNS(jobs/10, served) // warm
	mem := markMem()
	servedNS := steadyNS(jobs, served)
	m["serve.allocs_per_submit"] = float64(markMem().mallocs-mem.mallocs) / float64(jobs)
	steadyNS(jobs/10, direct)
	m["serve.overhead_us"] = (servedNS - steadyNS(jobs, direct)) / 1e3
}

// probeAutotune: Tuner.Decide for a mergesort of 2^16 on the HPU1 triple,
// cold (a fresh tuner prices every strategy from the analytic model) and
// warm (a calibrated tuner answering the same shape again).
func probeAutotune(m map[string]float64, quick bool) {
	reps := 200
	if quick {
		reps = 20
	}
	alg, err := hybriddc.NewMergesort(workload.Uniform(1<<16, 4))
	if err != nil {
		return
	}
	defer alg.Release()
	sp := autotune.Spec{
		Alg: alg.Name(), N: alg.N(), A: alg.Arity(), B: alg.Shrink(), Levels: alg.Levels(),
		F: alg.ModelF(), Leaf: alg.ModelLeaf(), P: 4, G: 4096, Gamma: 1.0 / 160,
		Bytes: alg.GPUBytes(0, 0, 1), HasGPU: true,
	}
	m["autotune.decide_ns_cold"] = steadyNS(reps, func() { autotune.NewTuner().Decide(0, sp) })

	warm := autotune.NewTuner()
	for i := 0; i < 2*autotune.DefaultMinObs; i++ {
		warm.Observe(0, autotune.Observation{Alg: sp.Alg, N: sp.N,
			ModelCPUUnits: 1e6, CPUSeconds: 1e-3, ModelGPUUnits: 1e6, GPUSeconds: 2e-3,
			TransferBytes: sp.Bytes, TransferSeconds: 1e-4, Transfers: 2})
	}
	warm.Decide(0, sp)
	m["autotune.decide_ns_warm"] = steadyNS(reps, func() { warm.Decide(0, sp) })
}

// probeNative: the engine's dispatch cost. Saturated: one submitter per
// worker floods CPU().Submit with 8-task batches. Empty: one batch of one
// no-op task, submit to completion, alone on the engine.
func probeNative(m map[string]float64, quick bool) {
	batches := 20000
	if quick {
		batches = 500
	}
	be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: nativeCPUWorkers})
	if err != nil {
		return
	}
	defer be.Close()
	cpu := be.CPU()
	noop := func(int) {}
	flood := func(n int) {
		var wg sync.WaitGroup
		for s := 0; s < nativeCPUWorkers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var done sync.WaitGroup
				for b := 0; b < n; b++ {
					done.Add(1)
					cpu.Submit(core.Batch{Tasks: 8, Run: noop}, done.Done)
				}
				done.Wait()
			}()
		}
		wg.Wait()
	}
	flood(batches / 10) // warm
	m["native.dispatch_submits_per_s"] = float64(nativeCPUWorkers*batches) / (steadyNS(5, func() { flood(batches) }) / 1e9)

	done := make(chan struct{}, 1)
	m["native.empty_batch_us"] = steadyNS(batches/10, func() {
		cpu.Submit(core.Batch{Tasks: 1, Run: noop}, func() { done <- struct{}{} })
		<-done
	}) / 1e3
}

// probeMempool: one Get and Put of the 2^20-element int32 class, the size
// the large remote workload leases per job.
func probeMempool(m map[string]float64) {
	const pairs = 1000
	mempool.Int32s.Put(mempool.Int32s.Get(1 << 20)) // the class holds a buffer
	m["mempool.get_put_ns"] = steadyNS(5, func() {
		for i := 0; i < pairs; i++ {
			mempool.Int32s.Put(mempool.Int32s.Get(1 << 20))
		}
	}) / pairs
}
