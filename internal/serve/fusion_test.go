package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/hpu"
	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fusedJob is one randomly generated GPUOnly job plus a pure-Go reference
// check of its result.
type fusedJob struct {
	kind  string
	alg   core.Alg
	check func(t *testing.T, i int)
}

func randomFusedJob(t *testing.T, rng *rand.Rand) fusedJob {
	t.Helper()
	n := 1 << (3 + rng.Intn(8)) // 8 … 1024
	return newFusedJob(t, rng.Intn(3), workload.Uniform(n, rng.Int63()))
}

// newFusedJob builds the job of the given kind (0 scan, 1 dcsum, else
// mergesort) over data.
func newFusedJob(t *testing.T, kind int, data []int32) fusedJob {
	t.Helper()
	n := len(data)
	switch kind {
	case 0:
		want := scan.Prefix(data)
		sc, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		return fusedJob{"scan", sc, func(t *testing.T, i int) {
			got := sc.Result()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("job %d (scan n=%d): result[%d] = %d, want %d", i, n, j, got[j], want[j])
				}
			}
		}}
	case 1:
		want := dcsum.Sum(data)
		sm, err := dcsum.New(data)
		if err != nil {
			t.Fatal(err)
		}
		return fusedJob{"dcsum", sm, func(t *testing.T, i int) {
			if got := sm.Result(); got != want {
				t.Fatalf("job %d (dcsum n=%d): result = %d, want %d", i, n, got, want)
			}
		}}
	default:
		want := append([]int32(nil), data...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		ms, err := mergesort.New(data)
		if err != nil {
			t.Fatal(err)
		}
		return fusedJob{"mergesort", ms, func(t *testing.T, i int) {
			got := ms.Result()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("job %d (mergesort n=%d): result[%d] = %d, want %d", i, n, j, got[j], want[j])
				}
			}
		}}
	}
}

// blockServer submits a Sequential blocker job, which occupies the server's
// single in-flight slot from Submit on, so jobs submitted next accumulate in
// the queue; the returned release starts them.
func blockServer(t *testing.T, srv *serve.Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	if _, err := srv.Submit(context.Background(),
		serve.Job{Alg: &gateAlg{Label: "blocker", Gate: gate}, Strategy: serve.Sequential}); err != nil {
		t.Fatal(err)
	}
	return func() { close(gate) }
}

// TestFusionBitIdenticalProperty is the fusion correctness property test
// over the serving layer: random mixes of GPUOnly jobs (three kinds, random
// sizes) are queued behind a blocker so the dispatcher fuses same-kind
// groups, and every per-job result must be bit-identical to a pure-Go
// reference. Aggregate accounting must see every job exactly once.
//
// The scan rows are the fusion throughput floor: 64 same-size prefix sums
// must finish at least 1.5x sooner, in the simulator's virtual seconds, on a
// fusing server than on a plain one.
func TestFusionBitIdenticalProperty(t *testing.T) {
	// run queues jobs behind a blocker on a fresh HPU1 simulator, releases
	// them, checks every result, and returns the virtual seconds the
	// simulator spent, how many reports came back fused, and the stats.
	run := func(t *testing.T, jobs []fusedJob, opts ...serve.Option) (virtual float64, fusedReports int, st serve.Stats) {
		t.Helper()
		be := hpu.MustSim(hpu.HPU1())
		srv, err := serve.New(be, append([]serve.Option{serve.WithQueueDepth(64)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		release := blockServer(t, srv)
		handles := make([]*serve.Handle, len(jobs))
		for i := range jobs {
			handles[i], err = srv.Submit(context.Background(),
				serve.Job{Alg: jobs[i].alg, Strategy: serve.GPUOnly})
			if err != nil {
				t.Fatal(err)
			}
		}
		release()
		for i, h := range handles {
			rep, err := h.Report()
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			jobs[i].check(t, i)
			if rep.Strategy == core.FusedStrategy {
				fusedReports++
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		st = srv.Stats()
		if st.Completed != uint64(len(jobs)+1) {
			t.Errorf("completed = %d, want %d", st.Completed, len(jobs)+1)
		}
		return be.Now(), fusedReports, st
	}

	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			jobs := make([]fusedJob, 4+rng.Intn(13))
			kinds := map[string]int{}
			for i := range jobs {
				jobs[i] = randomFusedJob(t, rng)
				kinds[jobs[i].kind]++
			}
			_, fusedReports, st := run(t, jobs, serve.WithMaxFusedJobs(64))

			// Every kind with ≥ 2 members must have fused at least once:
			// the first same-kind head absorbs all queued companions.
			wantFused := 0
			for _, c := range kinds {
				if c >= 2 {
					wantFused += c
				}
			}
			if st.FusedJobs != uint64(wantFused) || fusedReports != wantFused {
				t.Errorf("fused jobs = %d (reports %d), want %d (kinds %v)",
					st.FusedJobs, fusedReports, wantFused, kinds)
			}
		})
	}

	for _, n := range []int{1024, 4096} {
		t.Run(fmt.Sprintf("scan-floor/n=%d", n), func(t *testing.T) {
			const k = 64
			scans := func() []fusedJob {
				jobs := make([]fusedJob, k)
				for i := range jobs {
					jobs[i] = newFusedJob(t, 0, workload.Uniform(n, int64(1000*n+i)))
				}
				return jobs
			}
			unfused, _, _ := run(t, scans())
			fused, fusedReports, _ := run(t, scans(), serve.WithMaxFusedJobs(k))
			if fusedReports != k {
				t.Errorf("fused reports = %d, want %d", fusedReports, k)
			}
			if unfused < 1.5*fused {
				t.Errorf("fused %gs vs unfused %gs virtual: %.2fx, below the 1.5x floor",
					fused, unfused, unfused/fused)
			}
		})
	}
}

// TestFusionDeclinedForSingleton pins the zero-overhead fallback: a fusable
// job with no companion runs the ordinary gpu-only path and counts in no
// fused statistics.
func TestFusionDeclinedForSingleton(t *testing.T) {
	srv, err := serve.New(hpu.MustSim(hpu.HPU1()), serve.WithMaxFusedJobs(8))
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Uniform(256, 1)
	sc, err := scan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Submit(context.Background(), serve.Job{Alg: sc, Strategy: serve.GPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "gpu-only" {
		t.Errorf("strategy = %q, want gpu-only (fusion declined)", rep.Strategy)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.FusedRuns != 0 || st.FusedJobs != 0 {
		t.Errorf("fused stats = %+v, want none", st)
	}
}

// TestFusionFairnessNoStarvation is the satellite fairness property: a
// low-priority job of a different kind completes while same-kind
// high-priority jobs keep arriving and fusing. Fusion must not bypass the
// stride scheduler's starvation-freedom.
func TestFusionFairnessNoStarvation(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := serve.New(be, serve.WithQueueDepth(256), serve.WithMaxInFlight(1),
		serve.WithMaxFusedJobs(4))
	if err != nil {
		t.Fatal(err)
	}

	release := blockServer(t, srv)

	lpAlg, err := dcsum.New(workload.Uniform(64, 6))
	if err != nil {
		t.Fatal(err)
	}
	lp, err := srv.Submit(context.Background(),
		serve.Job{Alg: lpAlg, Strategy: serve.GPUOnly, Opts: []core.Option{core.WithPriority(1)}})
	if err != nil {
		t.Fatal(err)
	}

	submitHP := func(rng *rand.Rand) {
		sc, err := scan.New(workload.Uniform(4096, rng.Int63()))
		if err != nil {
			return
		}
		_, _ = srv.Submit(context.Background(), serve.Job{
			Alg: sc, Strategy: serve.GPUOnly,
			Opts: []core.Option{core.WithPriority(8)},
		})
	}

	// A backlog of high-priority fusable scans already waiting, plus a
	// continuous stream of more arriving until the low-priority job
	// completes (or the test gives up).
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		submitHP(rng)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(100))
		for {
			select {
			case <-stop:
				return
			default:
			}
			submitHP(rng)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	release()
	select {
	case <-lp.Done():
		// Starvation-free: the low-priority job finished against the stream.
	case <-time.After(10 * time.Second):
		t.Error("low-priority job starved behind fusing high-priority stream")
	}
	close(stop)
	wg.Wait()
	if err := lp.Err(); err != nil {
		t.Errorf("low-priority job failed: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.FusedRuns == 0 {
		t.Errorf("stream never fused (stats %+v); fairness test vacuous", st)
	}
}

// TestFusionCanceledMembers pins per-member cancellation semantics: members
// canceled while queued settle individually with ErrCanceled, and the lone
// survivor runs as the solo gpu-only job it was submitted as.
func TestFusionCanceledMembers(t *testing.T) {
	srv, err := serve.New(hpu.MustSim(hpu.HPU1()),
		serve.WithMaxFusedJobs(8))
	if err != nil {
		t.Fatal(err)
	}
	release := blockServer(t, srv)

	data := workload.Uniform(256, 7)
	want := scan.Prefix(data)
	survivor, err := scan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := srv.Submit(context.Background(), serve.Job{Alg: survivor, Strategy: serve.GPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	var canceled []*serve.Handle
	for i := 0; i < 2; i++ {
		sc, err := scan.New(workload.Uniform(256, int64(8+i)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		h, err := srv.Submit(ctx, serve.Job{Alg: sc, Strategy: serve.GPUOnly})
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		canceled = append(canceled, h)
	}
	release()

	rep, err := hs.Report()
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if rep.Strategy != "gpu-only" {
		t.Errorf("survivor strategy = %q, want gpu-only (a one-member group runs solo)", rep.Strategy)
	}
	got := survivor.Result()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("survivor result[%d] = %d, want %d", j, got[j], want[j])
		}
	}
	for i, h := range canceled {
		if _, err := h.Report(); !errors.Is(err, dcerr.ErrCanceled) {
			t.Errorf("canceled member %d: err = %v, want ErrCanceled", i, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Canceled != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 canceled, 2 completed", st)
	}
}

// TestFusionMetrics pins the serve_fused_* exposition: counters and the
// fusion-ratio float move when a fused run completes.
func TestFusionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := serve.New(hpu.MustSim(hpu.HPU1()),
		serve.WithMaxFusedJobs(8), serve.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	release := blockServer(t, srv)
	var handles []*serve.Handle
	for i := 0; i < 3; i++ {
		sc, err := scan.New(workload.Uniform(128, int64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(context.Background(), serve.Job{Alg: sc, Strategy: serve.GPUOnly})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	release()
	for _, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(serve.MetricFusedRuns).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", serve.MetricFusedRuns, got)
	}
	if got := reg.Counter(serve.MetricFusedJobs).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", serve.MetricFusedJobs, got)
	}
	ratio := reg.Float(serve.MetricFusionRatio).Value()
	if ratio <= 0 || ratio > 1 {
		t.Errorf("%s = %g, want in (0, 1]", serve.MetricFusionRatio, ratio)
	}
}

// TestFusionFaultInjected pins that a fused group is one attempt on the solo
// path: the device's fault injector reaches the fused launch, every member
// fails with the device fault, the breaker takes exactly one verdict, and the
// recorder holds the fused span plus each member's queue and job spans.
func TestFusionFaultInjected(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	in, err := faults.New(faults.Config{Seed: 1, KernelErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorderLimit(1024)
	srv, err := serve.New(be, serve.WithMaxInFlight(1), serve.WithMaxFusedJobs(4),
		serve.WithFaults(in), serve.WithBreaker(1, time.Minute), serve.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	release := blockServer(t, srv)
	var handles []*serve.Handle
	for i := 0; i < 4; i++ {
		sc, err := scan.New(workload.Uniform(256, int64(30+i)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(context.Background(), serve.Job{Alg: sc, Strategy: serve.GPUOnly})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	release()
	ids := make([]string, len(handles))
	for i, h := range handles {
		ids[i] = fmt.Sprint(h.ID)
		if _, err := h.Report(); !errors.Is(err, dcerr.ErrDeviceFault) {
			t.Errorf("member %d: err = %v, want ErrDeviceFault", h.ID, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.FusedRuns != 1 || st.FusedJobs != 4 || st.BreakerTrips != 1 {
		t.Errorf("stats = %+v, want one fused run of 4 jobs and one breaker trip", st)
	}
	if c := in.Counts(); c.Injected == 0 {
		t.Errorf("injector counts = %+v: no fault reached the fused launch", c)
	}

	labels := map[uint64][]string{}
	for _, sp := range rec.Spans() {
		if sp.Unit == "queue" || sp.Unit == "job" {
			labels[sp.Job] = append(labels[sp.Job], string(sp.Unit)+": "+sp.Label)
		}
	}
	head := handles[0].ID
	fused := fmt.Sprintf("job: fused ×4 scan jobs [%s] dev0", strings.Join(ids, " "))
	if !slices.Contains(labels[head], fused) {
		t.Errorf("head %d spans %q lack %q", head, labels[head], fused)
	}
	for _, h := range handles {
		label := fmt.Sprintf("job %d scan %s n=256 dev0", h.ID, core.FusedStrategy)
		for _, unit := range []string{"queue", "job"} {
			if !slices.Contains(labels[h.ID], unit+": "+label) {
				t.Errorf("member %d spans %q lack %s span %q", h.ID, labels[h.ID], unit, label)
			}
		}
	}
}

// TestFusionFeedsNoCalibration pins that a fused burst adds no tuner
// observation even with Strategy Auto's calibration active: a fused launch
// spreads its cost over its members and samples no solo strategy.
func TestFusionFeedsNoCalibration(t *testing.T) {
	tuner := autotune.NewTuner()
	before, err := tuner.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(hpu.MustSim(hpu.HPU1()), serve.WithMaxFusedJobs(8), serve.WithAutoTuner(tuner))
	if err != nil {
		t.Fatal(err)
	}
	release := blockServer(t, srv)
	var handles []*serve.Handle
	for i := 0; i < 6; i++ {
		sc, err := scan.New(workload.Uniform(512, int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(context.Background(), serve.Job{Alg: sc, Strategy: serve.GPUOnly})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	release()
	for _, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.FusedRuns != 1 {
		t.Fatalf("fused runs = %d, want 1; test vacuous", st.FusedRuns)
	}
	after, err := tuner.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("fused burst changed the calibration:\nbefore %s\nafter  %s", before, after)
	}
}
