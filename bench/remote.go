package main

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	hybriddc "repro"
	"repro/internal/api/client"
	"repro/internal/mempool"
)

// remoteConns is the closed loop's client count: one connection per core.
const remoteConns = 2

// remote is the two workloads that go through real loopback TCP to an
// in-process APIServer over the native server, closed loop, one request in
// flight per connection. Small requests in JSON make api and serve do most
// of the work; one large scan in binary frames makes per-request overhead
// negligible and payload handling (frame codec, mempool, copies) dominant.
type remote struct {
	cfg   config
	large bool

	jobs []*refJob
	reqs []hybriddc.APIJobRequest

	reg       *hybriddc.Metrics
	be        *hybriddc.Native
	srv       *hybriddc.Server
	api       *hybriddc.APIServer
	serveDone chan error
	clients   []*client.Client
	transport []*http.Transport
	wireBytes atomic.Int64 // both directions, counted on the client's conns when traced
}

func newRemote(cfg config, large bool) *remote { return &remote{cfg: cfg, large: large} }

// countingConn counts the bytes the client moves over one connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (r *remote) setup() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	strategy := "auto"
	if r.large {
		// One algorithm only: a mergesort/scan mix at this size is bimodal
		// and its median moves with the mix, not with the system.
		strategy = "bf-cpu"
		n := 1 << 20
		if r.cfg.quick {
			n = 1 << 14
		}
		for i := 0; i < 4; i++ {
			r.jobs = append(r.jobs, newRefJob("scan", n, rng.Int63()))
		}
	} else {
		variants := 8
		if r.cfg.quick {
			variants = 2
		}
		for _, kind := range servedKinds {
			for _, n := range []int{1 << 10, 1 << 12} {
				for v := 0; v < variants; v++ {
					r.jobs = append(r.jobs, newRefJob(kind, n, rng.Int63()))
				}
			}
		}
		rng.Shuffle(len(r.jobs), func(i, j int) { r.jobs[i], r.jobs[j] = r.jobs[j], r.jobs[i] })
	}
	for _, j := range r.jobs {
		r.reqs = append(r.reqs, hybriddc.APIJobRequest{Algorithm: j.kind, Data: j.data, Strategy: strategy})
	}

	if r.cfg.tr != nil {
		r.reg = hybriddc.NewMetrics()
	}
	var err error
	if r.be, r.srv, err = nativeServer(r.reg); err != nil {
		return err
	}
	// Settled jobs keep their payloads until evicted; a short ring keeps the
	// large workload's memory bounded and feeds released buffers back to the
	// pool the way a long-running server does.
	opts := []hybriddc.APIServerOption{hybriddc.WithAPIRetainJobs(16)}
	if r.reg != nil {
		opts = append(opts, hybriddc.WithAPIMetrics(r.reg))
	}
	if r.api, err = hybriddc.NewAPIServer(r.srv, opts...); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.serveDone = make(chan error, 1)
	go func() { r.serveDone <- r.api.Serve(ln) }()

	dialer := &net.Dialer{}
	for c := 0; c < remoteConns; c++ {
		tp := &http.Transport{MaxIdleConnsPerHost: 1}
		if r.cfg.tr != nil {
			tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{conn, &r.wireBytes}, nil
			}
		}
		opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: tp})}
		if r.large {
			opts = append(opts, client.WithBinary())
		}
		r.transport = append(r.transport, tp)
		r.clients = append(r.clients, client.New("http://"+ln.Addr().String(), opts...))
	}

	// Warm-up by count, so it is the same work on every run: connections
	// open, pools fill, and the auto-tuner leaves its cold start.
	warm := 300
	if r.large {
		warm = 4
	}
	if r.cfg.quick {
		warm = 8
	}
	res := r.closedLoop(nil, time.Time{}, warm)
	if res.failed > 0 {
		return errors.New("bench: warm-up jobs failed")
	}
	return nil
}

func (r *remote) close() error {
	for _, tp := range r.transport {
		tp.CloseIdleConnections()
	}
	var err error
	if r.api != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = r.api.Shutdown(ctx)
		cancel()
		<-r.serveDone
	}
	if r.srv != nil {
		err = errors.Join(err, r.srv.Close())
	}
	if r.be != nil {
		err = errors.Join(err, r.be.Close())
	}
	return err
}

// loopResult is what one closed loop saw.
type loopResult struct {
	done          []completion // submit → verified result, successful jobs
	elems         int
	sent          int
	failed, wrong int
	rejected      int            // 429s among the failures
	choices       map[string]int // Report.ChosenStrategy of auto jobs
	elapsed       time.Duration
}

// closedLoop drives every connection until the deadline (or, when perConn is
// positive, for exactly that many jobs each).
func (r *remote) closedLoop(tr *tracer, deadline time.Time, perConn int) loopResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A stuck job must end up in `failed`, not hang the benchmark.
	limit := 60 * time.Second
	if !deadline.IsZero() {
		limit += time.Until(deadline)
	}
	watchdog := time.AfterFunc(limit, cancel)
	defer watchdog.Stop()

	parts := make([]loopResult, len(r.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c, cli := range r.clients {
		wg.Add(1)
		go func(c int, cli *client.Client) {
			defer wg.Done()
			p := &parts[c]
			p.choices = map[string]int{}
			// Connections walk the job list from different offsets.
			for k := c * len(r.jobs) / len(r.clients); ; k++ {
				if perConn > 0 && p.sent == perConn {
					return
				}
				if perConn <= 0 && !time.Now().Before(deadline) {
					return
				}
				j, req := r.jobs[k%len(r.jobs)], r.reqs[k%len(r.jobs)]
				id := int64(c)<<32 | int64(p.sent)
				p.sent++
				t0 := time.Now()
				root := tr.begin("job", -1, id)
				s := tr.begin("api.submit", root, id)
				h, err := cli.Submit(ctx, req)
				tr.end(s)
				var res hybriddc.APIJobResult
				if err == nil {
					s = tr.begin("api.wait", root, id)
					res, err = h.Wait(ctx)
					tr.end(s)
				}
				if err != nil {
					tr.end(root)
					p.failed++
					if errors.Is(err, hybriddc.ErrQueueFull) {
						p.rejected++
					}
					continue
				}
				s = tr.begin("verify", root, id)
				ok := j.checkWire(res)
				tr.end(s)
				tr.end(root)
				if !ok {
					p.failed++
					p.wrong++
					continue
				}
				now := time.Now()
				p.done = append(p.done, completion{endS: now.Sub(start).Seconds(), latMS: float64(now.Sub(t0).Nanoseconds()) / 1e6, class: j.class()})
				p.elems += len(j.data)
				if cs := res.Report.ChosenStrategy; cs != "" {
					p.choices[cs]++
				}
			}
		}(c, cli)
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start), choices: map[string]int{}}
	for _, p := range parts {
		out.done = append(out.done, p.done...)
		out.elems += p.elems
		out.failed += p.failed
		out.wrong += p.wrong
		out.rejected += p.rejected
		out.sent += p.sent
		for k, v := range p.choices {
			out.choices[k] += v
		}
	}
	return out
}

func (r *remote) run(seconds float64) (outcome, error) {
	o := outcome{metrics: map[string]float64{}}
	tr := r.cfg.tr
	pools := markPools()
	r.wireBytes.Store(0)
	mem := markMem()
	res := r.closedLoop(tr, time.Now().Add(time.Duration(seconds*float64(time.Second))), 0)
	ok := len(res.done)
	if ok == 0 {
		return o, errors.New("bench: no job succeeded")
	}
	mem.perJob(&o, ok)
	wire := r.wireBytes.Load()

	o.attempted, o.failed, o.wrong = res.sent, res.failed, res.wrong
	rate, p50 := steady(res.done)
	o.set("jobs_per_s", rate)
	o.set("melem_per_s", rate*float64(res.elems)/float64(ok)/1e6)
	o.set("latency_p50_ms", p50)
	lat := latencies(res.done)
	wall := res.elapsed.Seconds()
	o.wholeRun(ok, wall, lat)
	o.set("failed_share", float64(res.failed)/float64(res.sent))
	o.notef("closed loop, %d connections, %.2f s: sent %d, succeeded %d, failed %d (wrong %d)",
		len(r.clients), wall, res.sent, ok, res.failed, res.wrong)
	if tr == nil {
		return o, nil
	}

	// Per-layer numbers of the traced run.
	o.set("api.submit_rtt_us", quantile(tr.us("api.submit"), 0.5))
	o.set("api.result_rtt_us", quantile(tr.us("api.wait"), 0.5))
	o.set("api.wire_bytes_per_job", float64(wire)/float64(res.sent))
	o.set("api.rejected_429", float64(res.rejected))
	choiceMetrics(&o, res.choices)
	pools.into(&o)

	// The same job mix in process, same concurrency: what is left of the
	// remote latency after subtracting it is the api layer's.
	strategy := hybriddc.JobAuto
	if r.large {
		strategy = hybriddc.JobBreadthFirstCPU
	}
	in := servedLoop(r.srv, r.jobs, strategy, remoteConns, time.Duration(seconds/4*float64(time.Second)), tr)
	o.wrong += in.wrong
	o.set("serve.submit_call_us", quantile(in.submitUS, 0.5))
	o.set("serve.turnaround_us", quantile(in.turnaroundUS, 0.5))
	o.set("serve.queue_wait_us_p50", quantile(in.queueWaitUS, 0.5))
	o.set("serve.queue_wait_us_p95", quantile(in.queueWaitUS, 0.95))
	o.set("api.overhead_us", 1e3*quantile(lat, 0.5)-quantile(in.turnaroundUS, 0.5))
	o.notef("in-process reference, same mix: %d jobs, failed %d, turnaround p50 %.1f us",
		len(in.turnaroundUS), in.failed, quantile(in.turnaroundUS, 0.5))

	st := r.srv.Stats()
	o.set("serve.max_queue_depth", float64(st.MaxQueueDepth))
	o.set("serve.rejected", float64(st.Rejected))
	registryMetrics(&o, r.reg)
	return o, nil
}

// servedResult is what an in-process closed loop over a Server saw; the
// slices are ascending microseconds.
type servedResult struct {
	turnaroundUS, submitUS, queueWaitUS []float64
	failed, wrong                       int
}

// servedLoop runs jobs closed-loop through srv.Submit from conc goroutines
// for dur: build the instance, submit, wait, verify, release — the steps a
// remote job takes minus the wire.
func servedLoop(srv *hybriddc.Server, jobs []*refJob, strategy hybriddc.JobStrategy, conc int, dur time.Duration, tr *tracer) servedResult {
	deadline := time.Now().Add(dur)
	parts := make([]servedResult, conc)
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for k := c * len(jobs) / conc; time.Now().Before(deadline); k++ {
				j := jobs[k%len(jobs)]
				id := int64(c+100)<<32 | int64(k)
				t0 := time.Now()
				root := tr.begin("serve.job", -1, id)
				alg, err := j.alg()
				if err != nil {
					p.failed++
					continue
				}
				s := tr.begin("serve.submit", root, id)
				t1 := time.Now()
				h, err := srv.Submit(context.Background(), hybriddc.JobSpec{Alg: alg, Strategy: strategy})
				p.submitUS = append(p.submitUS, float64(time.Since(t1).Nanoseconds())/1e3)
				tr.end(s)
				if err == nil {
					s = tr.begin("serve.wait", root, id)
					_, err = h.Report()
					tr.end(s)
				}
				if err != nil {
					tr.end(root)
					p.failed++
					continue
				}
				ok := j.checkAlg(alg)
				release(alg)
				tr.end(root)
				if !ok {
					p.failed++
					p.wrong++
					continue
				}
				p.turnaroundUS = append(p.turnaroundUS, float64(time.Since(t0).Nanoseconds())/1e3)
				p.queueWaitUS = append(p.queueWaitUS, 1e6*h.QueueWaitSeconds())
			}
		}(c)
	}
	wg.Wait()
	var out servedResult
	for _, p := range parts {
		out.turnaroundUS = append(out.turnaroundUS, p.turnaroundUS...)
		out.submitUS = append(out.submitUS, p.submitUS...)
		out.queueWaitUS = append(out.queueWaitUS, p.queueWaitUS...)
		out.failed += p.failed
		out.wrong += p.wrong
	}
	out.turnaroundUS = sortedCopy(out.turnaroundUS)
	out.submitUS = sortedCopy(out.submitUS)
	out.queueWaitUS = sortedCopy(out.queueWaitUS)
	return out
}

// poolMark is the buffer pools' hit and miss counts at one instant.
type poolMark struct{ hits, misses uint64 }

func markPools() poolMark {
	var m poolMark
	for _, p := range mempool.Stats() {
		for _, c := range p.Classes {
			m.hits += c.Hits
			m.misses += c.Misses
		}
	}
	return m
}

func (m poolMark) into(o *outcome) {
	now := markPools()
	if gets := (now.hits - m.hits) + (now.misses - m.misses); gets > 0 {
		o.set("mempool.hit_share", float64(now.hits-m.hits)/float64(gets))
	}
	o.set("mempool.retained_mb", float64(mempool.TotalRetainedBytes())/(1<<20))
}
