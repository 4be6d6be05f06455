package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve/servetest"
	"repro/internal/workload"
)

// apiConfig parameterizes the remote-serving stack for --api and
// --api-smoke.
type apiConfig struct {
	Addr     string
	Workers  int
	Lanes    int
	Devices  int
	InFlight int
	QDepth   int
}

// apiStack is one running remote-serving stack: a native backend pool, a
// serving server, and the HTTP front-end bound to a real TCP listener, with
// SIGTERM/SIGINT wired to a graceful drain.
type apiStack struct {
	backends []*hybriddc.Native
	pool     *hybriddc.Server
	api      *hybriddc.APIServer
	reg      *hybriddc.Metrics
	rec      *hybriddc.TraceRecorder
	addr     string

	serveDone    chan error // Serve returned: the listener is closed
	shutdownDone chan error // Shutdown finished (nil until triggered)
	stopSignals  func()
}

// startAPI boots the stack and starts serving. On SIGTERM or SIGINT the
// server drains: admission stops (503 + Retry-After), every accepted job
// runs to settlement, and only then does the listener close.
func startAPI(cfg apiConfig) (*apiStack, error) {
	s := &apiStack{
		reg:          hybriddc.NewMetrics(),
		rec:          hybriddc.NewTraceRecorderLimit(1 << 15),
		serveDone:    make(chan error, 1),
		shutdownDone: make(chan error, 1),
	}
	pool := make([]hybriddc.Backend, cfg.Devices)
	for i := range pool {
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: cfg.Workers, DeviceLanes: cfg.Lanes})
		if err != nil {
			return nil, err
		}
		s.backends = append(s.backends, be)
		pool[i] = be
	}
	srv, err := hybriddc.NewServerPool(pool,
		hybriddc.WithQueueDepth(cfg.QDepth),
		hybriddc.WithMaxInFlight(cfg.InFlight),
		hybriddc.WithServerMetrics(s.reg),
		hybriddc.WithServerRecorder(s.rec))
	if err != nil {
		return nil, err
	}
	s.pool = srv
	api, err := hybriddc.NewAPIServer(srv,
		hybriddc.WithAPIMetrics(s.reg),
		hybriddc.WithAPIRecorder(s.rec),
		hybriddc.WithAPIEventPoll(5*time.Millisecond))
	if err != nil {
		return nil, err
	}
	s.api = api

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	go func() { s.serveDone <- api.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	s.stopSignals = func() { signal.Stop(sigCh) }
	go func() {
		if _, ok := <-sigCh; !ok {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.shutdownDone <- api.Shutdown(ctx)
	}()
	return s, nil
}

// closeBackends tears down the pool after the API server has fully stopped.
func (s *apiStack) closeBackends() error {
	s.stopSignals()
	if err := s.pool.Close(); err != nil {
		return err
	}
	for _, be := range s.backends {
		if err := be.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runAPI is --api: serve the remote job API until SIGTERM/SIGINT, drain, and
// exit.
func runAPI(cfg apiConfig) error {
	s, err := startAPI(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("api: serving http://%s/v1/jobs (%d devices, queue %d, inflight %d); SIGTERM drains\n",
		s.addr, cfg.Devices, cfg.QDepth, cfg.InFlight)
	if err := <-s.serveDone; err != nil {
		return err
	}
	if err := <-s.shutdownDone; err != nil {
		return err
	}
	st := s.pool.Stats()
	fmt.Printf("api: drained; served %d jobs (%d completed, %d canceled, %d failed, %d rejected)\n",
		st.Submitted, st.Completed, st.Canceled, st.Failed, st.Rejected)
	return s.closeBackends()
}

// expected computes the reference answer for a smoke job locally, with the
// same arithmetic the algorithms use (int64 accumulation over int32 input),
// so a remote result can be checked bit for bit.
type smokeJob struct {
	kind string
	data []int32
	// exactly one of these is the expectation, matching kind
	sorted []int32
	scan   []int64
	sum    int64
}

func makeSmokeJob(rng *rand.Rand, minLog, maxLog int) smokeJob {
	n := 1 << (minLog + rng.Intn(maxLog-minLog+1))
	j := smokeJob{data: workload.Uniform(n, rng.Int63())}
	switch rng.Intn(3) {
	case 0:
		j.kind = "mergesort"
		j.sorted = append([]int32(nil), j.data...)
		sort.Slice(j.sorted, func(a, b int) bool { return j.sorted[a] < j.sorted[b] })
	case 1:
		j.kind = "scan"
		j.scan = make([]int64, n)
		var acc int64
		for i, v := range j.data {
			acc += int64(v)
			j.scan[i] = acc
		}
	default:
		j.kind = "sum"
		for _, v := range j.data {
			j.sum += int64(v)
		}
	}
	return j
}

// checkSmokeResult verifies bit-identity of a remote result.
func checkSmokeResult(j smokeJob, res hybriddc.APIJobResult) error {
	switch j.kind {
	case "mergesort":
		if len(res.Sorted) != len(j.sorted) {
			return fmt.Errorf("sorted length %d, want %d", len(res.Sorted), len(j.sorted))
		}
		for i := range j.sorted {
			if res.Sorted[i] != j.sorted[i] {
				return fmt.Errorf("sorted[%d] = %d, want %d", i, res.Sorted[i], j.sorted[i])
			}
		}
	case "scan":
		if len(res.Scan) != len(j.scan) {
			return fmt.Errorf("scan length %d, want %d", len(res.Scan), len(j.scan))
		}
		for i := range j.scan {
			if res.Scan[i] != j.scan[i] {
				return fmt.Errorf("scan[%d] = %d, want %d", i, res.Scan[i], j.scan[i])
			}
		}
	default:
		if res.Sum == nil || *res.Sum != j.sum {
			return fmt.Errorf("sum = %v, want %d", res.Sum, j.sum)
		}
	}
	return nil
}

// resultRequests reads the server's result-route request counter over the
// wire.
func resultRequests(cli *hybriddc.APIClient) (uint64, error) {
	raw, err := cli.Metrics(context.Background())
	if err != nil {
		return 0, fmt.Errorf("api-smoke metrics: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return 0, fmt.Errorf("api-smoke metrics decode: %w", err)
	}
	return snap.Counters["api_requests_result_total"], nil
}

// smokeStrategies is the strategy rotation the smoke clients draw from.
var smokeStrategies = []string{"bf-cpu", "seq-1cpu", "basic-hybrid", "advanced-hybrid", "gpu-only"}

// runAPISmoke is --api-smoke, the CI gate for the remote serving stack. Over
// one real TCP listener it drives:
//
//  1. at least `clients` concurrent remote submitters (64 by default) with a
//     mixed mergesort/scan/sum workload across all strategies, every result
//     checked bit-identical against a locally computed reference;
//  2. overload against the deliberately small admission queue: the load
//     starts against held execution slots, so the queue fills and the next
//     submissions must bounce with 429 and a Retry-After hint; every
//     eventually-accepted job still returns the right bits;
//  3. one /events SSE stream, asserting per-level execution progress
//     (span events on >= 2 distinct recursion levels) and a terminal "done";
//  4. a /metrics scrape over HTTP, asserting the api_* surface advanced,
//     then a binary-payload client pass (application/x-hpu-int32le frames
//     both ways), every result bit-exact against the local reference and
//     against a JSON round trip of the same data;
//  5. SIGTERM to itself mid-flight, asserting new submissions are refused
//     while every already-accepted job completes before the listener closes.
func runAPISmoke(cfg apiConfig, clients, jobsPerClient int, seed int64) error {
	s, err := startAPI(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("api-smoke: %d clients x %d jobs against http://%s (queue %d, inflight %d)\n",
		clients, jobsPerClient, s.addr, cfg.QDepth, cfg.InFlight)
	base := "http://" + s.addr

	// Phase 1+2: concurrent load with overload-and-retry. Gated jobs hold
	// every execution slot until the first 429 has been seen: the clients
	// fill the admission queue and the rest must be refused, whatever the
	// host's speed; how many 429s the released load then meets is its own
	// business.
	openSlots, err := servetest.Hold(s.pool, cfg.Devices*cfg.InFlight)
	if err != nil {
		return fmt.Errorf("api-smoke overload setup: %w", err)
	}
	defer openSlots()
	var (
		wg          sync.WaitGroup
		rejected    atomic.Uint64
		submitted   atomic.Uint64
		verified    atomic.Uint64
		streamSpans atomic.Uint64
		errMu       sync.Mutex
		firstErr    error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// Distinct recursion levels observed on the streamed job.
	streamLevels := map[int]bool{}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One transport per client: distinct connections, like distinct
			// remote processes.
			cli := hybriddc.NewAPIClient(base)
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for i := 0; i < jobsPerClient; i++ {
				j := makeSmokeJob(rng, 8, 13)
				req := hybriddc.APIJobRequest{
					Algorithm: j.kind,
					Data:      j.data,
					Strategy:  smokeStrategies[rng.Intn(len(smokeStrategies))],
					Priority:  1 + rng.Intn(4),
				}
				switch req.Strategy {
				case "basic-hybrid":
					req.Crossover = 3
				case "advanced-hybrid":
					req.Alpha = 0.5
					req.Y = 4
				}
				var h *hybriddc.RemoteHandle
				for {
					var err error
					h, err = cli.Submit(context.Background(), req)
					if err == nil {
						break
					}
					var apiErr *hybriddc.APIClientError
					if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
						if apiErr.RetryAfter <= 0 {
							fail(fmt.Errorf("client %d: 429 without Retry-After", c))
							return
						}
						rejected.Add(1)
						time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
						continue
					}
					fail(fmt.Errorf("client %d submit: %w", c, err))
					return
				}
				submitted.Add(1)

				// Client 0's first job doubles as the SSE progress probe.
				if c == 0 && i == 0 {
					err := h.Stream(context.Background(), func(ev hybriddc.APIEvent) error {
						if ev.Type == "span" && (ev.Unit == "cpu" || ev.Unit == "gpu") {
							streamSpans.Add(1)
							errMu.Lock()
							streamLevels[ev.Level] = true
							errMu.Unlock()
						}
						if ev.Type == "done" && (ev.Status == nil || ev.Status.State != "done") {
							return fmt.Errorf("done event without settled status")
						}
						return nil
					})
					if err != nil {
						fail(fmt.Errorf("client %d stream: %w", c, err))
						return
					}
				}

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				res, err := h.Wait(ctx)
				cancel()
				if err != nil {
					fail(fmt.Errorf("client %d wait job %d: %w", c, h.ID(), err))
					return
				}
				if err := checkSmokeResult(j, res); err != nil {
					fail(fmt.Errorf("client %d job %d (%s/%s): %w", c, h.ID(), j.kind, req.Strategy, err))
					return
				}
				verified.Add(1)
			}
		}(c)
	}
	for deadline := time.Now().Add(10 * time.Second); rejected.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("api-smoke: no 429 with every slot held, queue depth %d and %d clients", cfg.QDepth, clients)
		}
	}
	openSlots()
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("api-smoke load: %w", firstErr)
	}
	if got := verified.Load(); got != uint64(clients*jobsPerClient) {
		return fmt.Errorf("api-smoke: verified %d of %d jobs", got, clients*jobsPerClient)
	}
	if streamSpans.Load() == 0 {
		return fmt.Errorf("api-smoke: /events streamed no execution spans")
	}
	if len(streamLevels) < 2 {
		return fmt.Errorf("api-smoke: /events spans covered %d recursion levels, want >= 2", len(streamLevels))
	}

	// Phase 4: scrape /metrics over the wire.
	cli := hybriddc.NewAPIClient(base)
	raw, err := cli.Metrics(context.Background())
	if err != nil {
		return fmt.Errorf("api-smoke metrics: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("api-smoke metrics decode: %w", err)
	}
	if snap.Counters["api_requests_total"] == 0 ||
		snap.Counters["api_requests_submit_total"] == 0 ||
		snap.Counters["api_status_2xx_total"] == 0 ||
		snap.Counters["api_status_4xx_total"] == 0 { // the 429s
		return fmt.Errorf("api-smoke: api_* counters did not advance: %v", snap.Counters)
	}

	// Phase 4b: the binary payload path. A WithAPIBinary client submits raw
	// little-endian frames and negotiates binary results; every result must
	// match the locally computed reference bit for bit, and a same-data pair
	// of JSON and binary round trips must agree exactly.
	binVerified := 0
	{
		binCli := hybriddc.NewAPIClient(base, hybriddc.WithAPIBinary())
		rng := rand.New(rand.NewSource(seed ^ 0xb1a4))
		for i := 0; i < 9; i++ {
			j := makeSmokeJob(rng, 8, 12)
			req := hybriddc.APIJobRequest{
				Algorithm: j.kind,
				Data:      j.data,
				Strategy:  smokeStrategies[i%len(smokeStrategies)],
			}
			switch req.Strategy {
			case "basic-hybrid":
				req.Crossover = 3
			case "advanced-hybrid":
				req.Alpha = 0.5
				req.Y = 4
			}
			h, err := binCli.Submit(context.Background(), req)
			if err != nil {
				return fmt.Errorf("api-smoke binary submit (%s/%s): %w", j.kind, req.Strategy, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := h.Wait(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("api-smoke binary wait job %d: %w", h.ID(), err)
			}
			if err := checkSmokeResult(j, res); err != nil {
				return fmt.Errorf("api-smoke binary job %d (%s/%s): %w", h.ID(), j.kind, req.Strategy, err)
			}
			binVerified++
		}
		// Cross-check the two wire formats on identical input.
		pair := smokeJob{kind: "mergesort", data: workload.Uniform(1<<12, seed^0xface)}
		req := hybriddc.APIJobRequest{Algorithm: pair.kind, Data: pair.data, Strategy: "gpu-only"}
		jh, err := cli.Submit(context.Background(), req)
		if err != nil {
			return fmt.Errorf("api-smoke pair JSON submit: %w", err)
		}
		bh, err := binCli.Submit(context.Background(), req)
		if err != nil {
			return fmt.Errorf("api-smoke pair binary submit: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		jres, jerr := jh.Wait(ctx)
		bres, berr := bh.Wait(ctx)
		cancel()
		if jerr != nil || berr != nil {
			return fmt.Errorf("api-smoke pair wait: json %v, binary %v", jerr, berr)
		}
		if len(jres.Sorted) != len(bres.Sorted) {
			return fmt.Errorf("api-smoke pair: JSON %d elements, binary %d", len(jres.Sorted), len(bres.Sorted))
		}
		for i := range jres.Sorted {
			if jres.Sorted[i] != bres.Sorted[i] {
				return fmt.Errorf("api-smoke pair differs at %d: JSON %d, binary %d", i, jres.Sorted[i], bres.Sorted[i])
			}
		}
		binVerified += 2
	}

	// Phase 5: SIGTERM drain. Park jobs behind held slots, then signal
	// ourselves; every accepted job must produce a verified result before
	// the listener closes, while new submissions bounce with 503.
	type pending struct {
		j smokeJob
		h *hybriddc.RemoteHandle
	}
	// The drain window is held open, not timed: gated jobs submitted in
	// process take every execution slot of the pool, so the jobs accepted
	// over the wire below stay queued, and the server stays in its drain,
	// until the 503 has been observed and the gate opens. The run time of a
	// real job is no clock: it shrinks with every faster kernel.
	openGate, err := servetest.Hold(s.pool, cfg.Devices*cfg.InFlight)
	if err != nil {
		return fmt.Errorf("api-smoke drain setup: %w", err)
	}
	defer openGate()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	drainJobs := make([]smokeJob, cfg.QDepth)
	for i := range drainJobs {
		j := smokeJob{kind: "mergesort", data: workload.Uniform(1<<16, rng.Int63())}
		j.sorted = append([]int32(nil), j.data...)
		sort.Slice(j.sorted, func(a, b int) bool { return j.sorted[a] < j.sorted[b] })
		drainJobs[i] = j
	}
	drainCli := hybriddc.NewAPIClient(base, hybriddc.WithAPIBinary())
	// The result waits ride out the drain on connections that stay served
	// until the jobs settle. The route counter tells us when every wait is
	// parked server-side, so the SIGTERM below cannot race them against the
	// listener close.
	waitBase, err := resultRequests(cli)
	if err != nil {
		return err
	}
	results := make(chan error, len(drainJobs))
	var inFlight []pending
	for _, j := range drainJobs {
		h, err := drainCli.Submit(context.Background(),
			hybriddc.APIJobRequest{Algorithm: j.kind, Data: j.data, Strategy: "seq-1cpu"})
		if err != nil {
			return fmt.Errorf("api-smoke drain setup: %w", err)
		}
		p := pending{j, h}
		inFlight = append(inFlight, p)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := p.h.Wait(ctx)
			if err != nil {
				results <- fmt.Errorf("drain job %d: %w", p.h.ID(), err)
				return
			}
			results <- checkSmokeResult(p.j, res)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		n, err := resultRequests(cli)
		if err != nil {
			return err
		}
		if n >= waitBase+uint64(len(inFlight)) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("api-smoke: result waits never reached the server (%d of %d)", n-waitBase, len(inFlight))
		}
	}
	// Probe admission continuously from before the signal until either a 503
	// lands or the listener closes under us.
	refusedCh := make(chan bool, 1)
	go func() {
		// Fresh dial per probe: the drain closes idle pooled connections, and
		// a probe riding one would misread that reset as "listener closed".
		probeCli := hybriddc.NewAPIClient(base,
			hybriddc.WithAPIHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}))
		probe := workload.Uniform(64, 99)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			_, err := probeCli.Submit(context.Background(), hybriddc.APIJobRequest{Algorithm: "sum", Data: probe})
			var apiErr *hybriddc.APIClientError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
				refusedCh <- true
				return
			}
			// Accepted submissions and transient transport errors both mean
			// "keep probing"; only the deadline concedes.
			time.Sleep(200 * time.Microsecond)
		}
		refusedCh <- false
	}()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	if !<-refusedCh {
		return fmt.Errorf("api-smoke: submissions never refused with 503 during drain")
	}
	openGate()
	for range inFlight {
		if err := <-results; err != nil {
			return fmt.Errorf("api-smoke drain: %w", err)
		}
	}
	// The drained jobs are settled and verified; now the listener must close
	// cleanly and the drain must report success.
	if err := <-s.serveDone; err != nil {
		return fmt.Errorf("api-smoke serve: %w", err)
	}
	if err := <-s.shutdownDone; err != nil {
		return fmt.Errorf("api-smoke shutdown: %w", err)
	}
	st := s.pool.Stats()
	if st.Failed != 0 {
		return fmt.Errorf("api-smoke: pool reports %d failed jobs", st.Failed)
	}
	if err := s.closeBackends(); err != nil {
		return err
	}
	fmt.Printf("api-smoke: ok (%d jobs verified, %d binary-wire jobs bit-exact, %d overload rejections ridden out, %d stream spans, drain clean)\n",
		verified.Load(), binVerified, rejected.Load(), streamSpans.Load())
	return nil
}
