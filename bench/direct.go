package main

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"time"

	hybriddc "repro"
)

// directStrategies are the executor calls native-direct times, in the order
// a round makes them. The end-to-end metrics need the first two only, so an
// untraced run makes only those and gets twice the repetitions of each; a
// traced run makes all four, for the core.<alg>.<strategy>_ms metrics.
var directStrategies = []string{"seq", "bfcpu-grain", "bfcpu", "advanced"}

func (d *direct) strategies() []string {
	if d.cfg.tr == nil {
		return directStrategies[:2]
	}
	return directStrategies
}

// directRounds is how many rounds of each algorithm one cycle makes: the
// cheap algorithms repeat so that each contributes samples, not wall time.
var directRounds = map[string]int{"mergesort": 1, "scan": 4, "dcsum": 4}

// direct is library use with no server: the executors called directly on
// the native backend at a size well past the caches (2^22 int32 = 16 MiB).
// algos, native and core do all the work here, api and serve none, so leaf
// speed, engine dispatch and coarsening show here and nowhere else.
type direct struct {
	cfg  config
	n    int
	jobs []*refJob // one per algorithm
	reg  *hybriddc.Metrics
	be   *hybriddc.Native
}

func newDirect(cfg config) *direct {
	d := &direct{cfg: cfg, n: 1 << 22}
	if cfg.quick {
		d.n = 1 << 14
	}
	return d
}

func (d *direct) setup() error {
	rng := rand.New(rand.NewSource(d.cfg.seed))
	for _, kind := range servedKinds {
		d.jobs = append(d.jobs, newRefJob(kind, d.n, rng.Int63()))
	}
	if d.cfg.tr != nil {
		d.reg = hybriddc.NewMetrics()
	}
	var err error
	d.be, err = hybriddc.NewNative(hybriddc.NativeConfig{
		CPUWorkers: nativeCPUWorkers, DeviceLanes: nativeDeviceLanes, Metrics: d.reg})
	if err != nil {
		return err
	}
	// Warm-up: every call once (pools sized, workers started).
	for _, j := range d.jobs {
		for _, strat := range d.strategies() {
			if _, ok, err := d.call(j, strat, 0); err != nil || !ok {
				return errors.Join(err, errors.New("bench: warm-up call failed"))
			}
		}
	}
	return nil
}

func (d *direct) close() error {
	if d.be == nil {
		return nil
	}
	return d.be.Close()
}

// call makes one executor call on a fresh instance and verifies its output.
// It returns the call's own duration: building the instance and checking
// the result are outside it.
func (d *direct) call(j *refJob, strat string, id int64) (ms float64, ok bool, err error) {
	alg, err := j.alg()
	if err != nil {
		return 0, false, err
	}
	defer release(alg)
	var opts []hybriddc.Option
	if d.reg != nil {
		opts = append(opts, hybriddc.WithMetrics(d.reg))
	}
	ctx := context.Background()
	sp := d.cfg.tr.begin("core.run."+strat, -1, id)
	t0 := time.Now()
	switch strat {
	case "seq":
		_, err = hybriddc.RunSequentialCtx(ctx, d.be, alg, opts...)
	case "bfcpu":
		_, err = hybriddc.RunBreadthFirstCPUCtx(ctx, d.be, alg, opts...)
	case "bfcpu-grain":
		_, err = hybriddc.RunBreadthFirstCPUCtx(ctx, d.be, alg, append(opts, hybriddc.WithGrain(hybriddc.GrainAuto))...)
	case "advanced":
		_, err = hybriddc.RunAdvancedHybridCtx(ctx, d.be, alg, 0.5, alg.Levels()/2, opts...)
	}
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	d.cfg.tr.end(sp)
	if err != nil {
		return ms, false, err
	}
	return ms, j.checkAlg(alg), nil
}

func (d *direct) run(seconds float64) (outcome, error) {
	o := outcome{metrics: map[string]float64{}}
	times := map[string][]float64{} // "<alg>.<strategy>" → call ms
	calls := 0
	mem := markMem()
	start := time.Now()
	// Whole cycles only, so every run measures the same mix of calls; a
	// cycle starts while at least half of one fits in the time left.
	var cycle time.Duration
	for time.Since(start)+cycle/2 < time.Duration(seconds*float64(time.Second)) || calls == 0 {
		c0 := time.Now()
		for _, j := range d.jobs {
			for r := 0; r < directRounds[j.kind]; r++ {
				for _, strat := range d.strategies() {
					calls++
					ms, ok, err := d.call(j, strat, int64(calls))
					if err != nil {
						return o, err
					}
					if !ok {
						o.wrong++
						o.failed++
						continue
					}
					key := j.kind + "." + strat
					times[key] = append(times[key], ms)
				}
			}
		}
		cycle = time.Since(c0)
	}
	wall := time.Since(start).Seconds()
	mem.perJob(&o, calls)
	o.attempted = calls

	// Every timing below is the call's steady value (see steadyShare); the
	// whole-run medians go to the notes and the whole_run.* metrics.
	var rate, lat, speedup, wholeLat []float64
	cycleCalls, cycleMS := 0, 0.0 // one cycle of calls, at their steady times
	for _, j := range d.jobs {
		med := map[string]float64{}
		for _, strat := range d.strategies() {
			t := times[j.kind+"."+strat]
			if len(t) == 0 {
				return o, errors.New("bench: " + j.kind + " " + strat + " never verified")
			}
			med[strat] = steadyOf(t)
			cycleCalls += directRounds[j.kind]
			cycleMS += med[strat] * float64(directRounds[j.kind])
			o.set("core."+j.kind+"."+strat+"_ms", med[strat])
		}
		wholeLat = append(wholeLat, median(times[j.kind+".bfcpu-grain"]))
		rate = append(rate, float64(d.n)/1e6/(med["bfcpu-grain"]/1e3))
		lat = append(lat, med["bfcpu-grain"])
		speedup = append(speedup, med["seq"]/med["bfcpu-grain"])
		o.set("core.parallel_efficiency."+j.kind, med["seq"]/med["bfcpu-grain"]/nativeCPUWorkers)
		o.set("algos."+j.kind+".seq_ns_per_elem", 1e6*med["seq"]/float64(d.n))
		o.set("algos."+j.kind+".vs_plain_go", 1e6*med["seq"]/j.plainNS)
		o.notef("%-9s n=2^%d, %d calls each: seq %.2f ms (whole-run median %.2f), bf-cpu GrainAuto %.2f ms (%.2f); plain Go %.2f ms",
			j.kind, bits.TrailingZeros(uint(d.n)), len(times[j.kind+".seq"]),
			med["seq"], median(times[j.kind+".seq"]), med["bfcpu-grain"], median(times[j.kind+".bfcpu-grain"]), j.plainNS/1e6)
	}
	o.set("jobs_per_s", float64(cycleCalls)/(cycleMS/1e3))
	o.set("whole_run.jobs_per_s", float64(calls-o.failed)/wall)
	o.set("whole_run.latency_p50_ms", geomean(wholeLat))
	o.set("melem_per_s", geomean(rate))
	o.set("latency_p50_ms", geomean(lat))
	o.set("speedup_vs_seq", geomean(speedup))
	o.set("failed_share", float64(o.failed)/float64(calls))
	o.notef("%d calls in %.2f s, failed %d (wrong %d)", calls, wall, o.failed, o.wrong)
	if d.cfg.tr != nil {
		registryMetrics(&o, d.reg)
	}
	return o, nil
}
