package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"time"

	hybriddc "repro"
	"repro/internal/workload"
)

// simStrategies are the executors the size sweep runs, under the names the
// sim.virtual_s.* metrics use.
var simStrategies = []string{"seq", "bf-cpu", "gpu-only", "basic", "advanced"}

const (
	burstJobs  = 240 // part (c): fits the admission queue, so none is refused
	burstFused = 16  // WithMaxFusedJobs of the burst's server
	// partDJobs is how much of the burst part (d) replays per fixed
	// strategy: enough to rank auto against them, short enough to fit the
	// traced slice.
	partDJobs = 60
)

// simSweep is the simulator workload: a fixed job set on the HPU1 model.
// vtime, simgpu, simcpu, hpu and model do the work, plus serve's placement
// and fusion in part (c). It reports virtual time (what the modelled machine
// would take: exact, repeatable) and host time (how fast the simulator
// runs) in separate metrics.
//
//	(a) mergesort, sizes 2^14..2^22 in steps of 2 bits × five strategies, coalescing on
//	(b) all eight algorithms once under advanced-hybrid (arity 2, 3, 7, 8)
//	(c) a 240-job burst (¾ auto, ¼ gpu-only) through one Server on one Sim, fusion on
//	(d) traced runs only: the burst on a 2-Sim pool, and auto against each fixed strategy
type simSweep struct {
	cfg     config
	logNs   []int
	sweep   []*refJob
	generic []genericJob
	burst   []burstItem
	reg     *hybriddc.Metrics
}

// genericJob is one part-(b) algorithm: how to build it, its input size, and
// the check of its output against plain Go.
type genericJob struct {
	name  string
	elems int
	build func() (hybriddc.GPUAlg, error)
	check func(hybriddc.Alg) bool
}

type burstItem struct {
	job      *refJob
	strategy hybriddc.JobStrategy
}

func newSimSweep(cfg config) *simSweep {
	s := &simSweep{cfg: cfg, logNs: []int{14, 16, 18, 20, 22}}
	if cfg.quick {
		s.logNs = []int{10, 12, 14}
	}
	return s
}

func (s *simSweep) setup() error {
	rng := rand.New(rand.NewSource(s.cfg.seed))
	for _, l := range s.logNs {
		s.sweep = append(s.sweep, newRefJob("mergesort", 1<<l, rng.Int63()))
	}
	s.generic = genericJobs(rng)

	// The burst is the same job set for every seed — only the data differs —
	// so runs compare: job i has size 2^(10 + 4i mod 9), that is 2^10..2^18
	// (the quick pass stops at 2^12), the kinds rotate, and every fourth job
	// is gpu-only, so same-kind device jobs queue up and fuse. Jobs share a
	// pool of one input per size and kind.
	sizes := 9
	if s.cfg.quick {
		sizes = 3
	}
	pool := map[[2]int]*refJob{}
	for i := 0; i < burstJobs; i++ {
		key := [2]int{10 + 4*i%sizes, i % len(servedKinds)}
		if pool[key] == nil {
			pool[key] = newRefJob(servedKinds[key[1]], 1<<key[0], rng.Int63())
		}
		it := burstItem{job: pool[key], strategy: hybriddc.JobAuto}
		if i%4 == 3 {
			it.strategy = hybriddc.JobGPUOnly
		}
		s.burst = append(s.burst, it)
	}
	if s.cfg.tr != nil {
		s.reg = hybriddc.NewMetrics()
	}
	// Warm-up: the smallest size under every strategy.
	for _, strat := range simStrategies {
		if _, _, err := s.execute(s.sweep[0], strat, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *simSweep) close() error { return nil }

// simTotals accumulates what the simulators of one pass did.
type simTotals struct {
	events      uint64
	transferred int64
	linkBusy    float64
	planUS      []float64
}

func (t *simTotals) add(be *hybriddc.Sim) {
	t.events += be.Engine().Processed()
	t.transferred += be.TransferredBytes()
	t.linkBusy += be.LinkBusySeconds()
}

func (s *simSweep) newSim() *hybriddc.Sim {
	be := hybriddc.MustSim(hybriddc.HPU1())
	if s.reg != nil {
		be.SetMetrics(s.reg)
	}
	return be
}

// runStrategy executes alg on a fresh simulator and returns the virtual
// seconds it took.
func (s *simSweep) runStrategy(alg hybriddc.GPUAlg, strat string, tot *simTotals) (float64, error) {
	be := s.newSim()
	ctx := context.Background()
	var rep hybriddc.Report
	var err error
	switch strat {
	case "seq":
		rep, err = hybriddc.RunSequentialCtx(ctx, be, alg, hybriddc.WithCoalesce())
	case "bf-cpu":
		rep, err = hybriddc.RunBreadthFirstCPUCtx(ctx, be, alg, hybriddc.WithCoalesce())
	case "gpu-only":
		rep, err = hybriddc.RunGPUOnlyCtx(ctx, be, alg, hybriddc.WithCoalesce())
	case "basic":
		x, _ := hybriddc.BasicCrossover(alg.Arity(), hybriddc.MachineOf(be))
		rep, err = hybriddc.RunBasicHybridCtx(ctx, be, alg, min(x, alg.Levels()), hybriddc.WithCoalesce())
	case "advanced":
		sp := s.cfg.tr.begin("model.plan", -1, 0)
		t0 := time.Now()
		alpha, y := hybriddc.PlanAdvanced(be, alg)
		if tot != nil {
			tot.planUS = append(tot.planUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		s.cfg.tr.end(sp)
		rep, err = hybriddc.RunAdvancedHybridCtx(ctx, be, alg, alpha, y, hybriddc.WithCoalesce())
	}
	if tot != nil {
		tot.add(be)
	}
	return rep.Seconds, err
}

// execute builds a fresh instance of the sweep job, runs it and verifies it.
func (s *simSweep) execute(j *refJob, strat string, tot *simTotals) (virtual float64, ok bool, err error) {
	alg, err := j.alg()
	if err != nil {
		return 0, false, err
	}
	defer release(alg)
	sp := s.cfg.tr.begin("sim.run."+strat, -1, int64(len(j.data)))
	virtual, err = s.runStrategy(alg, strat, tot)
	s.cfg.tr.end(sp)
	if err != nil {
		return 0, false, err
	}
	return virtual, j.checkAlg(alg), nil
}

// burstResult is one pass of a burst through a server.
type burstResult struct {
	virtual          float64 // latest device clock when the last job settled
	stats            hybriddc.ServerStats
	submitUS, waitUS []float64
	choices          map[string]int
	failed, wrong    int
	elems            int
}

// serveBurst submits items to one server over the given simulators all at
// once and waits for every job. fixed overrides the items' strategy.
func (s *simSweep) serveBurst(sims []*hybriddc.Sim, items []burstItem, fixed string, tot *simTotals) (burstResult, error) {
	res := burstResult{choices: map[string]int{}}
	pool := make([]hybriddc.Backend, len(sims))
	for i, be := range sims {
		pool[i] = be
	}
	opts := []hybriddc.ServerOption{hybriddc.WithQueueDepth(serverQueueDepth), hybriddc.WithMaxFusedJobs(burstFused)}
	if s.reg != nil {
		opts = append(opts, hybriddc.WithServerMetrics(s.reg))
	}
	srv, err := hybriddc.NewServerPool(pool, opts...)
	if err != nil {
		return res, err
	}
	algs := make([]hybriddc.GPUAlg, len(items))
	handles := make([]*hybriddc.JobHandle, len(items))
	for i, it := range items {
		alg, err := it.job.alg()
		if err != nil {
			return res, errors.Join(err, srv.Close())
		}
		algs[i] = alg
		spec := hybriddc.JobSpec{Alg: alg, Strategy: it.strategy, Opts: []hybriddc.Option{hybriddc.WithCoalesce()}}
		switch fixed {
		case "bf-cpu":
			spec.Strategy = hybriddc.JobBreadthFirstCPU
		case "gpu-only":
			spec.Strategy = hybriddc.JobGPUOnly
		case "basic":
			spec.Strategy = hybriddc.JobBasicHybrid
			x, _ := hybriddc.BasicCrossover(alg.Arity(), hybriddc.MachineOf(sims[0]))
			spec.Crossover = min(x, alg.Levels())
		case "advanced":
			spec.Strategy = hybriddc.JobAdvancedHybrid
			spec.Alpha, spec.Y = hybriddc.PlanAdvanced(sims[0], alg)
		case "auto":
			spec.Strategy = hybriddc.JobAuto
		}
		sp := s.cfg.tr.begin("serve.submit", -1, int64(i))
		t0 := time.Now()
		handles[i], err = srv.Submit(context.Background(), spec)
		res.submitUS = append(res.submitUS, float64(time.Since(t0).Nanoseconds())/1e3)
		s.cfg.tr.end(sp)
		if err != nil {
			res.failed++
		}
	}
	for i, h := range handles {
		if h == nil {
			continue
		}
		rep, err := h.Report()
		switch {
		case err != nil:
			res.failed++
		case !items[i].job.checkAlg(algs[i]):
			res.failed++
			res.wrong++
		default:
			res.elems += len(items[i].job.data)
			res.waitUS = append(res.waitUS, 1e6*h.QueueWaitSeconds())
			if rep.AutoStrategy != "" {
				res.choices[rep.AutoStrategy]++
			}
		}
		release(algs[i])
	}
	res.stats = srv.Stats()
	for _, be := range sims {
		res.virtual = max(res.virtual, be.Now())
		if tot != nil {
			tot.add(be)
		}
	}
	return res, srv.Close()
}

func (s *simSweep) run(seconds float64) (outcome, error) {
	o := outcome{metrics: map[string]float64{}}
	var passHost, callMS, cpuLevelUS, gpuLaunchUS []float64
	callTimes := map[string][]float64{} // "<size>.<strategy>" or algorithm → host ms, one per pass
	var tot simTotals
	var virt map[string]float64 // Σ over sizes, per strategy: the same every pass
	var speedups []float64
	var generic8, predErr float64
	var burst burstResult
	jobs, elems := 0, 0

	launches := s.reg.Counter("simgpu_launches_total")
	mem := markMem()
	start := time.Now()
	var pass time.Duration
	for time.Since(start)+pass/2 < time.Duration(seconds*float64(time.Second)) || len(passHost) == 0 {
		p0 := time.Now()
		tot = simTotals{planUS: tot.planUS}
		virt = map[string]float64{}
		speedups = speedups[:0]

		// (a) the size sweep.
		for i, j := range s.sweep {
			at := map[string]float64{}
			for _, strat := range simStrategies {
				l0 := launches.Value()
				t0 := time.Now()
				v, ok, err := s.execute(j, strat, &tot)
				if err != nil {
					return o, err
				}
				host := time.Since(t0)
				o.attempted++
				if !ok {
					o.failed++
					o.wrong++
					continue
				}
				jobs++
				elems += len(j.data)
				ms := float64(host.Nanoseconds()) / 1e6
				callMS = append(callMS, ms)
				key := fmt.Sprint(s.logNs[i], ".", strat)
				callTimes[key] = append(callTimes[key], ms)
				at[strat] = v
				virt[strat] += v
				switch strat {
				case "bf-cpu":
					cpuLevelUS = append(cpuLevelUS, float64(host.Nanoseconds())/1e3/float64(s.logNs[i]+1))
				case "gpu-only":
					if n := launches.Value() - l0; n > 0 {
						gpuLaunchUS = append(gpuLaunchUS, float64(host.Nanoseconds())/1e3/float64(n))
					}
				}
			}
			if at["advanced"] > 0 {
				speedups = append(speedups, at["seq"]/at["advanced"])
			}
			if s.logNs[i] == 20 || (s.cfg.quick && i == len(s.sweep)-1) {
				pred, err := predictedSpeedup(j)
				if err != nil {
					return o, err
				}
				sim := at["seq"] / at["advanced"]
				predErr = math.Abs(pred-sim) / sim
			}
		}

		// (b) every algorithm once under the advanced division.
		generic8 = 0
		for _, g := range s.generic {
			t0 := time.Now()
			alg, err := g.build()
			if err != nil {
				return o, err
			}
			v, err := s.runStrategy(alg, "advanced", &tot)
			if err != nil {
				return o, err
			}
			o.attempted++
			if !g.check(alg) {
				o.failed++
				o.wrong++
				continue
			}
			jobs++
			elems += g.elems
			generic8 += v
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			callMS = append(callMS, ms)
			callTimes[g.name] = append(callTimes[g.name], ms)
		}

		// (c) the served burst.
		var err error
		burst, err = s.serveBurst([]*hybriddc.Sim{s.newSim()}, s.burst, "", &tot)
		if err != nil {
			return o, err
		}
		o.attempted += len(s.burst)
		o.failed += burst.failed
		o.wrong += burst.wrong
		jobs += len(s.burst) - burst.failed
		elems += burst.elems

		pass = time.Since(p0)
		passHost = append(passHost, pass.Seconds())
	}
	wall := time.Since(start).Seconds()
	if jobs == 0 {
		return o, errors.New("bench: no job succeeded")
	}
	mem.perJob(&o, jobs)

	// The gated host-time metrics are those of the fastest pass (see
	// steadyShare); every pass simulates the same jobs. The calls of a pass
	// span three orders of magnitude, so their latency is the geomean of
	// each call's steady time, not a median that falls between two sizes.
	var steadyCalls []float64
	for _, t := range callTimes {
		steadyCalls = append(steadyCalls, steadyOf(t))
	}
	passes, best := float64(len(passHost)), steadyOf(passHost)
	o.set("jobs_per_s", float64(jobs)/passes/best)
	o.set("melem_per_s", float64(elems)/1e6/passes/best)
	o.set("latency_p50_ms", geomean(steadyCalls))
	o.set("whole_run.jobs_per_s", float64(jobs)/wall)
	o.set("whole_run.latency_p50_ms", median(callMS))
	o.set("failed_share", float64(o.failed)/float64(o.attempted))
	o.set("sim_host_s", best)
	o.set("virtual_sweep_s", virt["advanced"])
	o.set("virtual_speedup_geomean", geomean(speedups))
	o.set("virtual_served_s", burst.virtual)
	for _, strat := range simStrategies {
		o.set("sim.virtual_s."+strat, virt[strat])
	}
	o.set("sim.virtual_s.generic8", generic8)
	o.set("vtime.events", float64(tot.events))
	o.set("vtime.events_per_host_s", float64(tot.events)/best)
	o.set("hpu.transferred_bytes", float64(tot.transferred))
	o.set("hpu.link_busy_virtual_s", tot.linkBusy)
	o.set("simcpu.host_us_per_level", median(cpuLevelUS))
	o.set("model.plan_advanced_us", median(tot.planUS))
	o.set("model.pred_error_adv", predErr)
	s.burstMetrics(&o, burst)
	o.notef("%d passes of parts (a)-(c), fastest %.2f host s, median %.2f: %d jobs attempted, failed %d (wrong %d)",
		len(passHost), best, median(passHost), o.attempted, o.failed, o.wrong)
	o.notef("virtual: sweep advanced %.9f s, speedup geomean %.4f, served burst %.9f s (%d fused runs)",
		virt["advanced"], geomean(speedups), burst.virtual, burst.stats.FusedRuns)
	if s.cfg.tr == nil {
		return o, nil
	}

	// Traced only: the device's own counters, and part (d).
	c := s.reg.Snapshot().Counters
	n := float64(len(passHost))
	o.set("simgpu.launches", float64(c["simgpu_launches_total"])/n)
	o.set("simgpu.wavefronts", float64(c["simgpu_wavefronts_total"])/n)
	if words := c["simgpu_coalesced_words_total"] + c["simgpu_uncoalesced_words_total"]; words > 0 {
		o.set("simgpu.coalesced_word_share", float64(c["simgpu_coalesced_words_total"])/float64(words))
	}
	o.set("simgpu.host_us_per_launch", median(gpuLaunchUS))
	o.set("autotune.refits", float64(c["autotune_refits_total"])/n)
	return o, s.partD(&o, burst)
}

func (s *simSweep) burstMetrics(o *outcome, b burstResult) {
	wait := sortedCopy(b.waitUS)
	o.set("serve.submit_call_us", median(b.submitUS))
	o.set("serve.queue_wait_us_p50", quantile(wait, 0.5))
	o.set("serve.queue_wait_us_p95", quantile(wait, 0.95))
	o.set("serve.max_queue_depth", float64(b.stats.MaxQueueDepth))
	o.set("serve.rejected", float64(b.stats.Rejected))
	o.set("serve.fused_runs", float64(b.stats.FusedRuns))
	if done := b.stats.Completed; done > 0 {
		o.set("serve.fused_job_share", float64(b.stats.FusedJobs)/float64(done))
	}
	choiceMetrics(o, b.choices)
}

// partD replays the burst on a pool of two simulators, and the head of the
// burst all-auto and under each fixed strategy, for ratios only.
func (s *simSweep) partD(o *outcome, one burstResult) error {
	two, err := s.serveBurst([]*hybriddc.Sim{s.newSim(), s.newSim()}, s.burst, "", nil)
	if err != nil {
		return err
	}
	o.wrong += two.wrong
	o.set("serve.pool2_virtual_speedup", one.virtual/two.virtual)
	var placed []float64
	for _, d := range two.stats.Devices {
		placed = append(placed, float64(d.Placements))
	}
	if len(placed) == 2 && placed[0]+placed[1] > 0 {
		o.set("serve.placement_imbalance", math.Abs(placed[0]-placed[1])/(placed[0]+placed[1]))
	}

	head := s.burst[:min(partDJobs, len(s.burst))]
	auto, err := s.serveBurst([]*hybriddc.Sim{s.newSim()}, head, "auto", nil)
	if err != nil {
		return err
	}
	o.wrong += auto.wrong
	best := math.Inf(1)
	for _, fixed := range simStrategies[1:] {
		r, err := s.serveBurst([]*hybriddc.Sim{s.newSim()}, head, fixed, nil)
		if err != nil {
			return err
		}
		o.wrong += r.wrong
		best = min(best, r.virtual)
	}
	o.set("autotune.auto_over_best_fixed", auto.virtual/best)
	o.notef("part (d): 2-sim pool %.9f virtual s (placements %v); head of %d jobs: auto %.6f, best fixed %.6f virtual s",
		two.virtual, placed, len(head), auto.virtual, best)
	return nil
}

// predictedSpeedup is the analytic model's speedup of the advanced division
// over one core for the job, at the (α, y) PlanAdvanced picks — to set
// against the simulator's. The repository holds no hardware measurement, so
// this is model against simulator, not against a machine.
func predictedSpeedup(j *refJob) (float64, error) {
	alg, err := j.alg()
	if err != nil {
		return 0, err
	}
	defer release(alg)
	be := hybriddc.MustSim(hybriddc.HPU1())
	m := alg.(hybriddc.Modeled)
	num, err := hybriddc.NewNumericModel(alg.Arity(), alg.Shrink(), alg.Levels(), m.ModelF(), m.ModelLeaf(), hybriddc.MachineOf(be))
	if err != nil {
		return 0, err
	}
	alpha, y := hybriddc.PlanAdvanced(be, alg)
	pred, err := num.PredictAdvanced(alpha, y, num.DefaultSplit(alpha, y))
	if err != nil {
		return 0, err
	}
	return num.SequentialTime() / pred.Makespan, nil
}

// genericJobs builds part (b): the eight algorithms at small fixed sizes,
// each with its plain-Go answer. Integer-valued matrices make the float64
// products exact, so they compare bit for bit; only the FFT, whose plain-Go
// reference is the quadratic DFT, compares within a tolerance.
func genericJobs(rng *rand.Rand) []genericJob {
	const n = 1 << 12
	var out []genericJob
	for _, kind := range servedKinds {
		j := newRefJob(kind, n, rng.Int63())
		out = append(out, genericJob{name: kind, elems: n, build: j.alg, check: j.checkAlg})
	}

	signed := workload.Uniform(n, rng.Int63())
	for i := range signed {
		signed[i] -= n // mixed signs, so the best subarray is not the whole input
	}
	best, cur := int64(signed[0]), int64(signed[0])
	for _, v := range signed[1:] {
		cur = max(cur, 0) + int64(v)
		best = max(best, cur)
	}
	out = append(out, genericJob{name: "maxsubarray", elems: n,
		build: func() (hybriddc.GPUAlg, error) { return hybriddc.NewMaxSubarray(signed) },
		check: func(a hybriddc.Alg) bool { return a.(interface{ Result() int64 }).Result() == best }})

	const kn = 1 << 8
	pa, pb := workload.Uniform(kn, rng.Int63()), workload.Uniform(kn, rng.Int63())
	prod := make([]int64, 2*kn)
	for i, x := range pa {
		for k, y := range pb {
			prod[i+k] += int64(x) * int64(y)
		}
	}
	out = append(out, genericJob{name: "karatsuba", elems: 2 * kn,
		build: func() (hybriddc.GPUAlg, error) { return hybriddc.NewKaratsuba(pa, pb) },
		check: func(a hybriddc.Alg) bool { return slices.Equal(a.(interface{ Result() []int64 }).Result(), prod) }})

	const dim, depth = 32, 3
	ma, mb := make([]float64, dim*dim), make([]float64, dim*dim)
	for i := range ma {
		ma[i], mb[i] = float64(rng.Intn(11)-5), float64(rng.Intn(11)-5)
	}
	mc := make([]float64, dim*dim)
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			for c := 0; c < dim; c++ {
				mc[i*dim+c] += ma[i*dim+k] * mb[k*dim+c]
			}
		}
	}
	matCheck := func(a hybriddc.Alg) bool { return slices.Equal(a.(interface{ Result() []float64 }).Result(), mc) }
	out = append(out,
		genericJob{name: "matmul", elems: 2 * dim * dim, check: matCheck,
			build: func() (hybriddc.GPUAlg, error) { return hybriddc.NewMatMul(ma, mb, dim, depth) }},
		genericJob{name: "strassen", elems: 2 * dim * dim, check: matCheck,
			build: func() (hybriddc.GPUAlg, error) { return hybriddc.NewStrassen(ma, mb, dim, depth) }})

	const fn = 1 << 8
	sig := make([]complex128, fn)
	for i := range sig {
		sig[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	dft := make([]complex128, fn)
	for k := range dft {
		for i, x := range sig {
			dft[k] += x * cmplx.Exp(complex(0, -2*math.Pi*float64(k*i)/fn))
		}
	}
	out = append(out, genericJob{name: "fft", elems: fn,
		build: func() (hybriddc.GPUAlg, error) { return hybriddc.NewFFT(sig) },
		check: func(a hybriddc.Alg) bool {
			got := a.(interface{ Result() []complex128 }).Result()
			for i := range dft {
				if cmplx.Abs(got[i]-dft[i]) > 1e-9*fn {
					return false
				}
			}
			return len(got) == len(dft)
		}})
	return out
}
