// Command hpuserve is the job server's binary. It runs in one of four modes:
//
//   - load (the default): floods one shared native backend, or a pool of
//     --devices of them, with a stream of mixed divide-and-conquer jobs
//     (mergesort, scan, sum) under random priorities and cancellations, then
//     prints the server's aggregate counters. --listen exposes /metrics (a
//     JSON snapshot of the metrics registry), /debug/vars (the standard
//     expvar surface) and /debug/trace (a Chrome trace-event download of the
//     most recent spans) while the load runs. --smoke caps the run at 5s
//     and exits nonzero if any job fails, any accounting invariant breaks,
//     or goroutines leak; --obs-smoke additionally serves the HTTP endpoints
//     on a loopback port, scrapes them itself, and exits nonzero unless the
//     queue-depth, per-priority latency and transfer-byte metrics advanced.
//   - --chaos: the seeded fault-injection soak. Every surviving result is
//     verified against plain-Go ground truth, the reliability metrics must
//     have advanced, and a fault report is written.
//   - --api: serves the remote HTTP/JSON and binary-frame job API on
//     --api-listen until SIGTERM, which drains gracefully.
//   - --api-smoke: the remote-serving self-check over real TCP: concurrent
//     clients, bit-exact results, observed 429 backpressure, /events
//     progress, a metrics scrape and a SIGTERM drain.
//
// Performance is measured by the one harness in bench/ (bash bench/run.sh,
// declared in BENCHMARK.json), not by this binary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/workload"
)

func main() {
	var (
		smoke     = flag.Bool("smoke", false, "run a short self-checking load test and exit nonzero on any anomaly")
		obsSmoke  = flag.Bool("obs-smoke", false, "like --smoke, plus serve the HTTP endpoints on a loopback port, scrape them, and verify the metrics advanced")
		listen    = flag.String("listen", "", "serve /metrics, /debug/vars and /debug/trace on this address while the load runs")
		duration  = flag.Duration("duration", 5*time.Second, "how long to keep submitting load")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "CPU pool size of the shared native backend")
		lanes     = flag.Int("lanes", 64, "device pool size of the shared native backend")
		inflight  = flag.Int("inflight", 8, "max jobs in flight on the backend")
		qdepth    = flag.Int("qdepth", 32, "admission queue depth")
		minLog    = flag.Int("minlog", 10, "log2 of the smallest job input")
		maxLog    = flag.Int("maxlog", 16, "log2 of the largest job input")
		cancelPct = flag.Int("cancel", 15, "percent of jobs to cancel mid-flight")
		seed      = flag.Int64("seed", 1, "PRNG seed for the job mix")

		devices    = flag.Int("devices", 1, "number of native backends in the serving pool")
		drainAfter = flag.Duration("drain-after", 0, "drain the highest-id device out of the pool after this long under load (0 disables; needs --devices >= 2)")

		fuse        = flag.Int("fuse", 0, "fuse up to this many queued same-kind GPU-only jobs into one launch (< 2 disables fusion)")
		batchWindow = flag.Duration("batch-window", 0, "how long a dispatched fusable job waits for companions to arrive")
		fuseBytes   = flag.Int64("fuse-bytes-cap", 0, "cap on a fused group's summed transfer bytes (0 = unbounded)")

		chaos          = flag.Bool("chaos", false, "run the seeded fault-injection soak: verify every surviving result, assert the reliability metrics advanced, write a fault report, and exit nonzero on any anomaly")
		chaosJobs      = flag.Int("chaos-jobs", 240, "how many jobs the --chaos soak submits")
		chaosFaultRate = flag.Float64("chaos-fault-rate", 0.2, "per-attempt probability of an injected device fault under --chaos")
		chaosReportOut = flag.String("chaos-report", "CHAOS_report.json", "output path for the --chaos fault report ('' disables)")
		chaosDevices   = flag.Int("chaos-devices", 1, "pool size for the --chaos soak; >= 2 injects faults into the highest-id device only and asserts breaker isolation, auto-drain, and zero healthy-device sheds")

		apiMode    = flag.Bool("api", false, "serve the remote HTTP/JSON job API until SIGTERM (which drains gracefully) instead of generating load")
		apiListen  = flag.String("api-listen", "127.0.0.1:8080", "listen address for --api")
		apiSmoke   = flag.Bool("api-smoke", false, "run the remote-serving self-check: concurrent clients over real TCP, bit-exact results, observed 429 backpressure, /events progress, metrics, and SIGTERM drain; exit nonzero on any anomaly")
		apiClients = flag.Int("api-clients", 64, "concurrent remote clients for --api-smoke")
		apiJobs    = flag.Int("api-jobs", 2, "jobs per client for --api-smoke")
	)
	flag.Parse()

	if *apiMode {
		check(runAPI(apiConfig{
			Addr:     *apiListen,
			Workers:  *workers,
			Lanes:    *lanes,
			Devices:  *devices,
			InFlight: *inflight,
			QDepth:   *qdepth,
		}))
		return
	}
	if *apiSmoke {
		// A deliberately small admission window so the client fleet provokes
		// real 429 backpressure.
		check(runAPISmoke(apiConfig{
			Addr:     "127.0.0.1:0",
			Workers:  *workers,
			Lanes:    *lanes,
			Devices:  *devices,
			InFlight: 2,
			QDepth:   4,
		}, *apiClients, *apiJobs, *seed))
		return
	}
	if *chaos {
		check(runChaos(chaosConfig{
			Jobs:      *chaosJobs,
			FaultRate: *chaosFaultRate,
			Seed:      *seed,
			Workers:   *workers,
			Lanes:     *lanes,
			Devices:   *chaosDevices,
		}, *chaosReportOut))
		return
	}

	if (*smoke || *obsSmoke) && *duration > 5*time.Second {
		*duration = 5 * time.Second
	}
	if *minLog < 1 || *maxLog < *minLog {
		check(fmt.Errorf("need 1 <= minlog <= maxlog, got %d..%d", *minLog, *maxLog))
	}
	if *devices < 1 {
		check(fmt.Errorf("need --devices >= 1, got %d", *devices))
	}
	if *drainAfter > 0 && *devices < 2 {
		check(fmt.Errorf("--drain-after needs --devices >= 2"))
	}
	baseline := runtime.NumGoroutine()

	// Observability: one registry and one bounded span recorder feed both
	// the HTTP endpoints and the post-run assertions.
	observing := *listen != "" || *obsSmoke
	var reg *hybriddc.Metrics
	var rec *hybriddc.TraceRecorder
	srvOpts := []hybriddc.ServerOption{
		hybriddc.WithQueueDepth(*qdepth),
		hybriddc.WithMaxInFlight(*inflight),
	}
	if *fuse >= 2 {
		srvOpts = append(srvOpts,
			hybriddc.WithMaxFusedJobs(*fuse),
			hybriddc.WithBatchWindow(*batchWindow),
			hybriddc.WithFusedBytesCap(*fuseBytes))
	}
	if observing {
		reg = hybriddc.NewMetrics()
		rec = hybriddc.NewTraceRecorderLimit(1 << 14)
		srvOpts = append(srvOpts,
			hybriddc.WithServerMetrics(reg),
			hybriddc.WithServerRecorder(rec))
	}

	var httpAddr string
	if observing {
		addr := *listen
		if addr == "" {
			addr = "127.0.0.1:0" // obs-smoke: loopback, kernel-chosen port
		}
		var err error
		httpAddr, err = serveHTTP(addr, reg, rec)
		check(err)
		fmt.Printf("serving http://%s/metrics /debug/vars /debug/trace\n", httpAddr)
	}

	pool := make([]hybriddc.Backend, *devices)
	backends := make([]*hybriddc.Native, *devices)
	for i := range pool {
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: *workers, DeviceLanes: *lanes})
		check(err)
		backends[i] = be
		pool[i] = be
	}
	srv, err := hybriddc.NewServerPool(pool, srvOpts...)
	check(err)

	// Arm the mid-load drain: the highest-id device leaves the pool
	// gracefully while submissions continue against the survivors.
	drainDone := make(chan error, 1)
	if *drainAfter > 0 {
		go func() {
			time.Sleep(*drainAfter)
			drainDone <- srv.DrainBackend(context.Background(), *devices-1)
		}()
	}

	rng := rand.New(rand.NewSource(*seed))
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		submitted int
		rejected  int
		completed int
		canceled  int
		failed    int
		firstErr  error
	)

	deadline := time.Now().Add(*duration)
	for time.Now().Before(deadline) {
		job, err := makeJob(rng, *minLog, *maxLog, *lanes > 0)
		check(err)
		ctx, cancel := context.WithCancel(context.Background())
		h, err := srv.Submit(ctx, job, hybriddc.WithPriority(1+rng.Intn(4)))
		if err != nil {
			cancel()
			if errors.Is(err, hybriddc.ErrQueueFull) {
				mu.Lock()
				rejected++
				mu.Unlock()
				time.Sleep(200 * time.Microsecond) // back off and retry later
				continue
			}
			check(err)
		}
		mu.Lock()
		submitted++
		mu.Unlock()
		doCancel := rng.Intn(100) < *cancelPct
		cancelAfter := time.Duration(rng.Intn(500)) * time.Microsecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			// Composable completion: select over Done instead of parking in
			// Report, so the cancellation timer shares this one goroutine.
			var timer <-chan time.Time
			if doCancel {
				timer = time.After(cancelAfter)
			}
			select {
			case <-h.Done():
			case <-timer:
				cancel()
				<-h.Done()
			}
			err := h.Err() // settled: never blocks
			rep, _ := h.Report()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, hybriddc.ErrCanceled):
				canceled++
				if !rep.Partial {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("job %d: canceled but Report not marked partial", h.ID)
					}
				}
			default:
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		}()
	}

	wg.Wait()
	if *drainAfter > 0 {
		check(<-drainDone)
	}
	// Scrape before teardown so gauges still reflect the loaded server.
	var snap snapshot
	if *obsSmoke {
		check(scrape(httpAddr, &snap))
	}
	check(srv.Close())
	for _, be := range backends {
		check(be.Close())
	}
	st := srv.Stats()

	fmt.Printf("submitted %d  rejected(queue-full) %d\n", submitted, rejected)
	fmt.Printf("completed %d  canceled %d  failed %d\n", completed, canceled, failed)
	fmt.Printf("server: submitted %d rejected %d completed %d canceled %d failed %d\n",
		st.Submitted, st.Rejected, st.Completed, st.Canceled, st.Failed)
	fmt.Printf("queue: max depth %d  avg wait %.3fms  busy %.3fs\n",
		st.MaxQueueDepth, 1e3*st.AvgQueueWaitSeconds, st.BusySeconds)
	if *fuse >= 2 {
		fmt.Printf("fusion: %d fused runs covering %d jobs\n", st.FusedRuns, st.FusedJobs)
	}
	if *devices > 1 {
		for _, d := range st.Devices {
			fmt.Printf("device %d: placements %d  trips %d  removed %v\n",
				d.ID, d.Placements, d.BreakerTrips, d.Removed)
		}
		fmt.Printf("pool: rebalanced %d  drains %d\n", st.Rebalanced, st.Drains)
	}

	if !*smoke && !*obsSmoke {
		return
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "smoke: "+format+"\n", args...)
		os.Exit(1)
	}
	// Smoke invariants.
	if firstErr != nil {
		fail("job error: %v", firstErr)
	}
	if completed+canceled != submitted {
		fail("accounting: %d completed + %d canceled != %d submitted", completed, canceled, submitted)
	}
	if st.Completed+st.Canceled+st.Failed != st.Submitted {
		fail("server accounting: %d+%d+%d != %d", st.Completed, st.Canceled, st.Failed, st.Submitted)
	}
	if st.Failed != 0 {
		fail("server reports %d failed jobs", st.Failed)
	}
	if submitted == 0 {
		fail("no jobs submitted")
	}
	if *drainAfter > 0 {
		if !st.Devices[*devices-1].Removed || st.Drains == 0 {
			fail("drained device %d not removed (drains %d)", *devices-1, st.Drains)
		}
	}
	if *obsSmoke {
		assertObserved(fail, snap, st, rec)
	}
	// Give transfer goroutines and pool workers a moment to exit.
	for i := 0; i < 50 && runtime.NumGoroutine() > baseline+3; i++ {
		time.Sleep(20 * time.Millisecond)
	}
	// The HTTP listener goroutine (if any) is still intentionally alive.
	slack := 2
	if observing {
		slack++
	}
	if g := runtime.NumGoroutine(); g > baseline+slack {
		fail("goroutine leak: %d at start, %d after close", baseline, g)
	}
	fmt.Println("smoke: ok")
}

// serveHTTP starts the observability endpoints and returns the bound
// address. The server runs for the remainder of the process lifetime.
func serveHTTP(addr string, reg *hybriddc.Metrics, rec *hybriddc.TraceRecorder) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	reg.PublishExpvar("hybriddc")
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		rec.WriteChromeTrace(w)
	})
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

// snapshot mirrors the JSON shape of /metrics for the self-scrape.
type snapshot struct {
	Counters   map[string]uint64  `json:"counters"`
	Gauges     map[string]int64   `json:"gauges"`
	Floats     map[string]float64 `json:"floats"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// scrape fetches /metrics over real HTTP (exercising the full exposition
// path, not the in-process registry) and decodes it. Keep-alives are off so
// the connections' server goroutines don't trip the leak check.
func scrape(addr string, snap *snapshot) error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	// The other two endpoints must at least answer.
	for _, path := range []string{"/debug/vars", "/debug/trace"} {
		r, err := client.Get("http://" + addr + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", path, r.Status)
		}
	}
	return nil
}

// assertObserved verifies the scraped metrics advanced under load: the
// serving counters match Stats, the admission queue was observed nonempty,
// at least one per-priority latency histogram filled, and bytes crossed the
// link in both directions.
func assertObserved(fail func(string, ...any), snap snapshot, st hybriddc.ServerStats, rec *hybriddc.TraceRecorder) {
	if got := snap.Counters["serve_submitted_total"]; got != st.Submitted {
		fail("scraped serve_submitted_total = %d, server says %d", got, st.Submitted)
	}
	if got := snap.Counters["serve_completed_total"]; got != st.Completed {
		fail("scraped serve_completed_total = %d, server says %d", got, st.Completed)
	}
	if got := snap.Gauges["serve_queue_depth_max"]; got < 1 {
		fail("serve_queue_depth_max = %d: queue-depth metric never advanced", got)
	}
	waits := uint64(0)
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "serve_wait_seconds_p") {
			waits += h.Count
		}
	}
	if waits == 0 {
		fail("no serve_wait_seconds_p* observations: per-priority latency histograms never advanced")
	}
	if got := snap.Counters["core_transfer_to_gpu_bytes"]; got == 0 {
		fail("core_transfer_to_gpu_bytes = 0: transfer metrics never advanced")
	}
	if got := snap.Counters["core_transfer_to_cpu_bytes"]; got == 0 {
		fail("core_transfer_to_cpu_bytes = 0: transfer metrics never advanced")
	}
	if rec.Len() == 0 {
		fail("trace recorder captured no spans")
	}
}

// makeJob draws one job from the mixed workload: algorithm, size, and
// strategy. On a backend without device lanes only CPU strategies are drawn.
func makeJob(rng *rand.Rand, minLog, maxLog int, hasGPU bool) (hybriddc.JobSpec, error) {
	n := 1 << (minLog + rng.Intn(maxLog-minLog+1))
	data := workload.Uniform(n, rng.Int63())

	var alg hybriddc.Alg
	var err error
	switch rng.Intn(3) {
	case 0:
		alg, err = hybriddc.NewMergesort(data)
	case 1:
		alg, err = hybriddc.NewScan(data)
	default:
		alg, err = hybriddc.NewSum(data)
	}
	if err != nil {
		return hybriddc.JobSpec{}, err
	}

	job := hybriddc.JobSpec{Alg: alg}
	levels := job.Alg.Levels()
	draws := 5
	if !hasGPU {
		draws = 2
	}
	switch rng.Intn(draws) {
	case 0:
		job.Strategy = hybriddc.JobSequential
	case 1:
		job.Strategy = hybriddc.JobBreadthFirstCPU
	case 2:
		job.Strategy = hybriddc.JobBasicHybrid
		job.Crossover = levels / 3
	case 3:
		job.Strategy = hybriddc.JobAdvancedHybrid
		job.Alpha = 0.25 + rng.Float64()/2
		job.Y = levels / 2
	default:
		job.Strategy = hybriddc.JobGPUOnly
	}
	return job, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpuserve:", err)
		os.Exit(1)
	}
}
