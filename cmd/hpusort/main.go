// Command hpusort sorts a random array with the hybrid mergesort under a
// chosen strategy and backend, reporting the time and the speedup over the
// single-core recursive baseline.
//
// With -backend sim (default) it runs on the simulated HPU of the paper and
// times are virtual; with -backend native it runs on real goroutines on this
// machine and times are wall-clock (no GPU: the device pool is goroutines).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	var (
		logN      = flag.Int("logn", 20, "input size exponent: n = 2^logn")
		strategy  = flag.String("strategy", "advanced", "seq, bf, basic, advanced, or gpu")
		backend   = flag.String("backend", "sim", "sim or native")
		platform  = flag.String("platform", "HPU1", "simulated platform (HPU1 or HPU2)")
		alpha     = flag.Float64("alpha", -1, "advanced: CPU work ratio (default: model optimum)")
		y         = flag.Int("y", -1, "advanced: transfer level (default: model optimum)")
		seed      = flag.Int64("seed", 1, "input seed")
		workers   = flag.Int("workers", 0, "native: CPU pool size (0 = GOMAXPROCS)")
		lanes     = flag.Int("lanes", 256, "native: device pool size")
		tuneIt    = flag.Bool("tune", false, "advanced: find (alpha, y) empirically instead of using the model")
		showTrace = flag.Bool("trace", false, "print each run's summary, Gantt timeline and per-unit utilization")
		traceOut  = flag.String("traceout", "", "write a Chrome trace-event JSON file")
	)
	flag.Parse()

	n := 1 << *logN
	in := workload.Uniform(n, *seed)

	newBackend := func() (hybriddc.Backend, func(), error) {
		switch *backend {
		case "sim":
			pl, err := platformByName(*platform)
			if err != nil {
				return nil, nil, err
			}
			be, err := hybriddc.NewSim(pl)
			return be, func() {}, err
		case "native":
			be, err := hybriddc.NewNative(hybriddc.NativeConfig{
				CPUWorkers: *workers, DeviceLanes: *lanes,
			})
			if err != nil {
				return nil, nil, err
			}
			return be, func() { be.Close() }, nil
		default:
			return nil, nil, fmt.Errorf("unknown backend %q", *backend)
		}
	}

	// Baseline.
	be, closeBe, err := newBackend()
	check(err)
	s, err := hybriddc.NewMergesort(in)
	check(err)
	seq, err := hybriddc.RunSequentialCtx(context.Background(), be, s)
	check(err)
	verify(s.Result())
	closeBe()
	fmt.Printf("sequential 1-core: %.4fs\n", seq.Seconds)

	if *strategy == "seq" {
		return
	}

	be, closeBe, err = newBackend()
	check(err)
	defer closeBe()
	var opts []hybriddc.Option
	if *showTrace {
		opts = append(opts, hybriddc.WithTrace(os.Stdout))
	}
	var rec *hybriddc.TraceRecorder
	if *traceOut != "" {
		rec = hybriddc.NewTraceRecorder()
		opts = append(opts, hybriddc.WithSpanRecorder(rec))
	}
	s, err = hybriddc.NewMergesort(in)
	check(err)

	var rep hybriddc.Report
	switch *strategy {
	case "bf":
		rep, err = hybriddc.RunBreadthFirstCPUCtx(context.Background(), be, s, opts...)
		check(err)
	case "basic":
		x := 10
		if sim, ok := be.(*hybriddc.Sim); ok {
			if c, ok := hybriddc.BasicCrossover(2, hybriddc.MachineOf(sim)); ok {
				x = c
			}
		}
		if x > *logN {
			x = *logN
		}
		rep, err = hybriddc.RunBasicHybridCtx(context.Background(), be, s, x, append(opts, hybriddc.WithCoalesce())...)
		check(err)
	case "advanced":
		a, yy := *alpha, *y
		if *tuneIt {
			res, err := hybriddc.TuneAdvanced(func(ta float64, ty int) (float64, error) {
				tb, closeTb, err := newBackend()
				if err != nil {
					return 0, err
				}
				defer closeTb()
				ts, err := hybriddc.NewMergesort(in)
				if err != nil {
					return 0, err
				}
				rep, err := hybriddc.RunAdvancedHybridCtx(context.Background(), tb, ts,
					ta, ty, hybriddc.WithCoalesce())
				return rep.Seconds, err
			}, hybriddc.TuneConfig{Levels: *logN})
			check(err)
			a, yy = res.Alpha, res.Y
			fmt.Printf("tuned over %d trials\n", res.Trials)
		}
		if sim, ok := be.(*hybriddc.Sim); ok && (a < 0 || yy < 0) {
			pa, py := hybriddc.PlanAdvanced(sim, s)
			if a < 0 {
				a = pa
			}
			if yy < 0 {
				yy = py
			}
		}
		if a < 0 {
			a = 0.16
		}
		if yy < 0 || yy > *logN {
			yy = *logN / 2
		}
		fmt.Printf("advanced parameters: alpha=%.3f y=%d\n", a, yy)
		rep, err = hybriddc.RunAdvancedHybridCtx(context.Background(), be, s,
			a, yy, append(opts, hybriddc.WithCoalesce())...)
		check(err)
	case "gpu":
		ps, err2 := hybriddc.NewParallelMergesort(in)
		check(err2)
		rep, err = hybriddc.RunGPUOnlyCtx(context.Background(), be, ps, opts...)
		check(err)
		verify(ps.Result())
		fmt.Printf("%s: total %.4fs (device %.4fs), speedup %.2fx (%.2fx sort-only)\n",
			rep.Strategy, rep.Seconds, rep.GPUPortionSeconds,
			seq.Seconds/rep.Seconds, seq.Seconds/rep.GPUPortionSeconds)
		writeTrace(rec, *traceOut)
		return
	default:
		fmt.Fprintf(os.Stderr, "hpusort: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	verify(s.Result())
	fmt.Printf("%s: %.4fs, speedup %.2fx\n", rep.Strategy, rep.Seconds, seq.Seconds/rep.Seconds)
	writeTrace(rec, *traceOut)
}

// writeTrace writes the recorded timeline as Chrome trace-event JSON; a
// nil recorder (no -traceout) writes nothing.
func writeTrace(rec *hybriddc.TraceRecorder, path string) {
	if rec == nil {
		return
	}
	f, err := os.Create(path)
	check(err)
	err = rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	check(err)
	fmt.Printf("chrome trace written to %s\n", path)
}

func platformByName(name string) (hybriddc.Platform, error) {
	switch name {
	case "HPU1":
		return hybriddc.HPU1(), nil
	case "HPU2":
		return hybriddc.HPU2(), nil
	}
	return hybriddc.Platform{}, fmt.Errorf("unknown platform %q", name)
}

func verify(out []int32) {
	if !workload.IsSorted(out) {
		fmt.Fprintln(os.Stderr, "hpusort: OUTPUT NOT SORTED")
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpusort: %v\n", err)
		os.Exit(1)
	}
}
