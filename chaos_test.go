package hybriddc_test

// Chaos soak: the server runs 240 jobs through a seeded fault injector, and
// the reliability layer must mask every device failure it promises to mask:
// zero wrong results, bounded shedding, and the retry, fallback, hedge and
// breaker machinery all visibly exercised.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/workload"
)

// chaosReport is what a failing soak logs.
type chaosReport struct {
	Faults    hybriddc.FaultCounts `json:"injected_faults"`
	Stats     hybriddc.ServerStats `json:"server_stats"`
	Succeeded int                  `json:"succeeded"`
	Verified  int                  `json:"verified_results"`
	Wrong     int                  `json:"wrong_results"`
	Shed      int                  `json:"shed_degraded"`
	Expected  int                  `json:"expected_failures"`
	Spans     int                  `json:"trace_spans"`
	Anomalies []string             `json:"anomalies"`
}

// chaosExpected is a job's ground truth: exactly one field is meaningful,
// keyed by the algorithm the job carries.
type chaosExpected struct {
	sorted []int32
	prefix []int64
	sum    int64
}

// TestChaosSoak has three rows. One device: ~20% of attempts fault (kernel
// and transfer errors, close races, stalls) under a mix of retry, CPU
// fallback, hedging and deliberately unprotected jobs. A 2-device pool: only
// device 1 faults, every job carries retry and CPU fallback, and device 1
// must trip its breaker and drain itself out of the pool while no job is
// shed. Fused: one device with job fusion on and no job carrying a policy,
// so GPU-only jobs fuse and the faults land inside fused launches too.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 240-job chaos soak in -short mode")
	}
	const jobs, seed, rate = 240, 1, 0.2
	rows := []struct {
		name    string
		devices int
		faults  hybriddc.FaultsConfig
		server  func(in *hybriddc.FaultInjector) []hybriddc.ServerOption
		// policy draws a job's reliability options; protected jobs carry a
		// CPU fallback and must never fail.
		policy func(rng *rand.Rand) (opts []hybriddc.Option, protected bool)
		check  func(t *testing.T, r chaosReport, counters map[string]uint64)
	}{{
		name:    "one-device",
		devices: 1,
		// Weighted toward hard kernel errors so retry exhaustion and
		// consecutive-fault breaker trips stay reachable; the 2ms stall
		// dwarfs the 300µs hedge delay, so stuck devices lose the hedge race.
		faults: hybriddc.FaultsConfig{
			Seed:              seed,
			KernelErrorRate:   0.65 * rate,
			TransferErrorRate: 0.10 * rate,
			CloseRaceRate:     0.05 * rate,
			StuckRate:         0.20 * rate,
			Stall:             2 * time.Millisecond,
		},
		server: func(in *hybriddc.FaultInjector) []hybriddc.ServerOption {
			return []hybriddc.ServerOption{
				hybriddc.WithMaxInFlight(8),
				hybriddc.WithServerFaults(in),
				hybriddc.WithBreaker(2, 2*time.Millisecond),
			}
		},
		// Every job retries once; most also fall back to the CPU, half of
		// those hedge, and the rest are unprotected so ErrRetriesExhausted
		// and ErrDegraded stay reachable.
		policy: func(rng *rand.Rand) ([]hybriddc.Option, bool) {
			opts := []hybriddc.Option{hybriddc.WithRetry(1, 200*time.Microsecond)}
			if rng.Intn(100) >= 80 {
				return opts, false
			}
			opts = append(opts, hybriddc.WithFallback(hybriddc.CPUOnly))
			if rng.Intn(2) == 0 {
				opts = append(opts, hybriddc.WithHedge(300*time.Microsecond))
			}
			return opts, true
		},
		check: func(t *testing.T, r chaosReport, counters map[string]uint64) {
			st := r.Stats
			for _, m := range []struct {
				name string
				got  uint64
			}{
				{"serve_retries_total", st.Retries},
				{"serve_fallbacks_total", st.Fallbacks},
				{"serve_breaker_trips_total", st.BreakerTrips},
				{"serve_hedge_wins_total", st.HedgeWins},
			} {
				if m.got == 0 || counters[m.name] != m.got {
					t.Errorf("%s = %d, server says %d: never exercised, or invisible", m.name, counters[m.name], m.got)
				}
			}
			if shed := float64(st.Degraded) / float64(st.Submitted+st.Degraded); shed > 0.5 {
				t.Errorf("shed rate %.3f exceeds 0.5: the breaker never recovers", shed)
			}
		},
	}, {
		name:    "pool-one-faulty",
		devices: 2,
		// Hard faults only, so a retried job faults twice in a row and the
		// consecutive-fault breaker threshold is reliably reached.
		faults: hybriddc.FaultsConfig{
			Seed:              seed,
			KernelErrorRate:   0.8 * rate,
			TransferErrorRate: 0.2 * rate,
		},
		server: func(in *hybriddc.FaultInjector) []hybriddc.ServerOption {
			return []hybriddc.ServerOption{
				hybriddc.WithMaxInFlight(4),
				hybriddc.WithDeviceFaults(1, in),
				hybriddc.WithBreaker(2, time.Minute),
				hybriddc.WithAutoDrain(),
			}
		},
		policy: func(*rand.Rand) ([]hybriddc.Option, bool) {
			return []hybriddc.Option{hybriddc.WithRetry(1, 0), hybriddc.WithFallback(hybriddc.CPUOnly)}, true
		},
		check: func(t *testing.T, r chaosReport, counters map[string]uint64) {
			st := r.Stats
			if r.Verified != jobs || st.Degraded != 0 {
				t.Errorf("verified %d of %d jobs, %d shed: the healthy device must absorb the load", r.Verified, jobs, st.Degraded)
			}
			if d := st.Devices[1]; d.BreakerTrips == 0 || !d.Removed {
				t.Errorf("faulty device: %d breaker trips, removed %v; want a trip and an auto-drain", d.BreakerTrips, d.Removed)
			}
			if d := st.Devices[0]; d.BreakerTrips != 0 {
				t.Errorf("healthy device tripped %d times", d.BreakerTrips)
			}
			if st.Drains == 0 || counters["serve_drains_total"] != st.Drains {
				t.Errorf("serve_drains_total = %d, server says %d", counters["serve_drains_total"], st.Drains)
			}
			if counters["serve_breaker_trips_total"] != st.BreakerTrips || counters["serve_rebalances_total"] != st.Rebalanced {
				t.Errorf("trips %d and rebalances %d counted, server says %d and %d",
					counters["serve_breaker_trips_total"], counters["serve_rebalances_total"], st.BreakerTrips, st.Rebalanced)
			}
		},
	}, {
		name:    "fused",
		devices: 1,
		faults: hybriddc.FaultsConfig{
			Seed:              seed,
			KernelErrorRate:   0.8 * rate,
			TransferErrorRate: 0.2 * rate,
		},
		server: func(in *hybriddc.FaultInjector) []hybriddc.ServerOption {
			return []hybriddc.ServerOption{
				hybriddc.WithMaxInFlight(2),
				hybriddc.WithMaxFusedJobs(8),
				hybriddc.WithServerFaults(in),
				hybriddc.WithBreaker(3, 2*time.Millisecond),
			}
		},
		// A policy keeps a job out of fusion, so none carries one: every
		// failure is a device fault or a breaker shed.
		policy: func(*rand.Rand) ([]hybriddc.Option, bool) { return nil, false },
		check: func(t *testing.T, r chaosReport, counters map[string]uint64) {
			st := r.Stats
			if st.FusedRuns == 0 || counters["serve_fused_runs_total"] != st.FusedRuns {
				t.Errorf("serve_fused_runs_total = %d, server says %d: fusion never exercised, or invisible",
					counters["serve_fused_runs_total"], st.FusedRuns)
			}
			if counters["serve_breaker_trips_total"] != st.BreakerTrips {
				t.Errorf("serve_breaker_trips_total = %d, server says %d", counters["serve_breaker_trips_total"], st.BreakerTrips)
			}
		},
	}}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var r chaosReport
			defer func() {
				if t.Failed() {
					buf, _ := json.MarshalIndent(r, "", "  ")
					t.Logf("fault report:\n%s", buf)
				}
			}()

			natives := make([]*hybriddc.Native, row.devices)
			pool := make([]hybriddc.Backend, row.devices)
			for i := range pool {
				be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: runtime.GOMAXPROCS(0), DeviceLanes: 64})
				if err != nil {
					t.Fatal(err)
				}
				natives[i], pool[i] = be, be
			}
			in, err := hybriddc.NewFaultInjector(row.faults)
			if err != nil {
				t.Fatal(err)
			}
			// The recorder gives every attempt, hedge and fallback a trace
			// scope, so -race also covers a hedge and its primary writing
			// spans into one job's scope.
			reg := hybriddc.NewMetrics()
			rec := hybriddc.NewTraceRecorderLimit(1 << 14)
			srv, err := hybriddc.NewServerPool(pool, append(row.server(in),
				hybriddc.WithQueueDepth(64), hybriddc.WithServerMetrics(reg),
				hybriddc.WithServerRecorder(rec))...)
			if err != nil {
				t.Fatal(err)
			}

			type submitted struct {
				h         *hybriddc.JobHandle
				want      chaosExpected
				protected bool
			}
			var subs []submitted
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < jobs; i++ {
				spec, want, err := makeChaosJob(rng)
				if err != nil {
					t.Fatal(err)
				}
				opts, protected := row.policy(rng)
				h, err := srv.Submit(context.Background(), spec, opts...)
				for errors.Is(err, hybriddc.ErrQueueFull) {
					time.Sleep(200 * time.Microsecond)
					h, err = srv.Submit(context.Background(), spec, opts...)
				}
				switch {
				case errors.Is(err, hybriddc.ErrDegraded):
					r.Shed++
				case err != nil:
					t.Fatalf("submit job %d: %v", i, err)
				default:
					subs = append(subs, submitted{h, want, protected})
				}
			}
			// Export the trace while jobs are still running, as a
			// /debug/trace download would.
			if err := rec.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("trace export under faults: %v", err)
			}

			for _, j := range subs {
				_, err := j.h.Report()
				switch {
				case err == nil:
					r.Succeeded++
					if detail := verifyChaosResult(j.h.ResultAlg(), j.want); detail == "" {
						r.Verified++
					} else {
						r.Wrong++
						r.Anomalies = append(r.Anomalies, fmt.Sprintf("job %d: wrong result: %s", j.h.ID, detail))
					}
				case j.protected:
					// The CPU path is never fault-injected, and open breakers
					// re-route a fallback job to it.
					r.Anomalies = append(r.Anomalies, fmt.Sprintf("job %d: fallback-protected job failed: %v", j.h.ID, err))
				case errors.Is(err, hybriddc.ErrDegraded):
					r.Shed++
				case errors.Is(err, hybriddc.ErrRetriesExhausted), errors.Is(err, hybriddc.ErrDeviceFault):
					r.Expected++ // an unprotected job lost its gamble
				default:
					r.Anomalies = append(r.Anomalies, fmt.Sprintf("job %d: unclassified failure: %v", j.h.ID, err))
				}
			}

			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			for _, be := range natives {
				if err := be.Close(); err != nil {
					t.Fatal(err)
				}
			}
			r.Stats, r.Faults, r.Spans = srv.Stats(), in.Counts(), rec.Len()

			if len(r.Anomalies) > 0 {
				t.Errorf("%d anomalies, first: %s", len(r.Anomalies), r.Anomalies[0])
			}
			if r.Succeeded == 0 || r.Verified != r.Succeeded {
				t.Errorf("verified %d of %d successes", r.Verified, r.Succeeded)
			}
			if r.Faults.Injected == 0 {
				t.Errorf("injector never fired (%d attempts)", r.Faults.Attempts)
			}
			if r.Spans == 0 {
				t.Error("the recorder holds no spans")
			}
			row.check(t, r, reg.Snapshot().Counters)
			// Transfer goroutines, pool workers and losing hedges exit
			// asynchronously.
			for i := 0; i < 50 && runtime.NumGoroutine() > baseline+2; i++ {
				time.Sleep(20 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > baseline+2 {
				t.Errorf("goroutine leak: %d at start, %d after close", baseline, g)
			}
		})
	}
}

// makeChaosJob draws one GPU-bound (or occasionally CPU) job over a small
// input and computes its ground truth in plain Go, so verification is
// independent of every executor under test.
func makeChaosJob(rng *rand.Rand) (hybriddc.JobSpec, chaosExpected, error) {
	n := 1 << (10 + rng.Intn(4)) // 2^10 .. 2^13
	data := workload.Uniform(n, rng.Int63())

	var want chaosExpected
	var fresh func() (hybriddc.Alg, error)
	switch rng.Intn(3) {
	case 0:
		fresh = func() (hybriddc.Alg, error) { return hybriddc.NewMergesort(data) }
		want.sorted = append([]int32(nil), data...)
		insertionFreeSort(want.sorted)
	case 1:
		fresh = func() (hybriddc.Alg, error) { return hybriddc.NewScan(data) }
		want.prefix = make([]int64, n)
		var acc int64
		for i, v := range data {
			acc += int64(v)
			want.prefix[i] = acc
		}
	default:
		fresh = func() (hybriddc.Alg, error) { return hybriddc.NewSum(data) }
		for _, v := range data {
			want.sum += int64(v)
		}
	}
	alg, err := fresh()
	if err != nil {
		return hybriddc.JobSpec{}, want, err
	}

	spec := hybriddc.JobSpec{Alg: alg, Fresh: fresh}
	levels := alg.Levels()
	switch rng.Intn(6) {
	case 0: // keep some pure-CPU traffic in the mix
		spec.Strategy = hybriddc.JobBreadthFirstCPU
	case 1, 2:
		spec.Strategy = hybriddc.JobBasicHybrid
		spec.Crossover = levels / 3
	case 3:
		spec.Strategy = hybriddc.JobAdvancedHybrid
		spec.Alpha = 0.25 + rng.Float64()/2
		spec.Y = levels / 2
	default:
		spec.Strategy = hybriddc.JobGPUOnly
	}
	return spec, want, nil
}

// insertionFreeSort sorts in place without sort.Slice's reflection, keeping
// the ground-truth path trivially auditable (bottom-up merge, same element
// type as the algorithm under test but none of its code).
func insertionFreeSort(a []int32) {
	buf := make([]int32, len(a))
	for width := 1; width < len(a); width *= 2 {
		for lo := 0; lo < len(a); lo += 2 * width {
			mid, hi := min(lo+width, len(a)), min(lo+2*width, len(a))
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if a[i] <= a[j] {
					buf[k] = a[i]
					i++
				} else {
					buf[k] = a[j]
					j++
				}
				k++
			}
			k += copy(buf[k:], a[i:mid])
			copy(buf[k:], a[j:hi])
			copy(a[lo:hi], buf[lo:hi])
		}
	}
}

// verifyChaosResult checks the winning instance's output against the ground
// truth, whichever executor (device, retry, hedge or fallback) produced it,
// and describes the first difference ("" when there is none).
func verifyChaosResult(alg hybriddc.Alg, want chaosExpected) string {
	switch a := alg.(type) {
	case *mergesort.Sorter:
		return firstDiff("mergesort", a.Result(), want.sorted)
	case *scan.Scanner:
		return firstDiff("scan", a.Result(), want.prefix)
	case *dcsum.Summer:
		if got := a.Result(); got != want.sum {
			return fmt.Sprintf("sum = %d, want %d", got, want.sum)
		}
		return ""
	}
	return fmt.Sprintf("unknown result type %T", alg)
}

func firstDiff[T comparable](name string, got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return ""
}
