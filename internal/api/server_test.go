package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/dcerr"
	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/trace"
	"repro/internal/workload"
)

// harness boots a real serve.Server behind a real TCP listener and returns a
// client pointed at it. Cleanup shuts the API server down and closes the pool.
type harness struct {
	srv  *api.Server
	pool *serve.Server
	cli  *client.Client
	reg  *metrics.Registry
	rec  *trace.Recorder
	base string
}

func newHarness(t *testing.T, poolOpts []serve.Option, apiOpts ...api.Option) *harness {
	t.Helper()
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rec := trace.NewRecorderLimit(1 << 14)
	poolOpts = append([]serve.Option{serve.WithRecorder(rec)}, poolOpts...)
	pool, err := serve.New(be, poolOpts...)
	if err != nil {
		t.Fatal(err)
	}
	apiOpts = append([]api.Option{api.WithMetrics(reg), api.WithRecorder(rec), api.WithEventPoll(2 * time.Millisecond)}, apiOpts...)
	srv, err := api.New(pool, apiOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	h := &harness{
		srv:  srv,
		pool: pool,
		reg:  reg,
		rec:  rec,
		base: "http://" + ln.Addr().String(),
	}
	h.cli = client.New(h.base)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		pool.Close()
	})
	return h
}

// holdSlots occupies n execution slots of the pool behind an API server
// (servetest.Hold); release lets them go, at cleanup at the latest. Tests that
// need the server busy while they watch a wire-submitted job use this, not the
// run time of a large job, as the clock: the window it opens closes when the
// test says so, whatever the kernels cost.
func holdSlots(t *testing.T, pool *serve.Server, n int) (release func()) {
	t.Helper()
	release, err := servetest.Hold(pool, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return release
}

// TestRoundTripAllAlgorithms submits each algorithm kind remotely and checks
// the result is bit-identical to the locally computed answer.
func TestRoundTripAllAlgorithms(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	data := workload.Uniform(1<<10, rng.Int63())

	// mergesort
	hd, err := h.cli.Submit(ctx, api.JobRequest{Algorithm: "mergesort", Data: data, Strategy: "bf-cpu"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hd.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(res.Sorted) != len(want) {
		t.Fatalf("sorted length %d, want %d", len(res.Sorted), len(want))
	}
	for i := range want {
		if res.Sorted[i] != want[i] {
			t.Fatalf("sorted[%d] = %d, want %d", i, res.Sorted[i], want[i])
		}
	}
	if res.Report.Algorithm == "" || res.Report.Seconds < 0 {
		t.Fatalf("implausible report %+v", res.Report)
	}

	// scan (prefix sums)
	hd, err = h.cli.Submit(ctx, api.JobRequest{Algorithm: "scan", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = hd.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var acc int64
	for i, v := range data {
		acc += int64(v)
		if res.Scan[i] != acc {
			t.Fatalf("scan[%d] = %d, want %d", i, res.Scan[i], acc)
		}
	}

	// sum
	hd, err = h.cli.Submit(ctx, api.JobRequest{Algorithm: "sum", Data: data, Strategy: "seq-1cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = hd.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if res.Sum == nil || *res.Sum != acc {
		t.Fatalf("sum = %v, want %d", res.Sum, acc)
	}

	// Status after settlement reads "done" with a report.
	st, err := hd.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Report == nil || st.Error != nil {
		t.Fatalf("status %+v, want done with report", st)
	}
}

// TestBadRequests pins the 400-class mapping: unknown algorithm, unknown
// strategy, bad timeout header, malformed JSON, bad path ids, and 404s.
func TestBadRequests(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	data := workload.Uniform(64, 1)

	cases := []struct {
		req  api.JobRequest
		want error
	}{
		{api.JobRequest{Algorithm: "quicksort", Data: data}, dcerr.ErrBadParam},
		{api.JobRequest{Algorithm: "mergesort", Data: data, Strategy: "warp-drive"}, dcerr.ErrBadParam},
		{api.JobRequest{Algorithm: "mergesort", Data: data[:63]}, dcerr.ErrNotPowerOfTwo},
		{api.JobRequest{Algorithm: "mergesort", Data: data, Reliability: &api.Reliability{MaxRetries: -1}}, dcerr.ErrBadParam},
		{api.JobRequest{Algorithm: "mergesort", Data: data, Reliability: &api.Reliability{Fallback: "tpu"}}, dcerr.ErrBadParam},
	}
	for i, tc := range cases {
		_, err := h.cli.Submit(ctx, tc.req)
		var apiErr *client.Error
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("case %d: err %v, want 400", i, err)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("case %d: %v does not unwrap to %v", i, err, tc.want)
		}
	}

	// Malformed JSON bodies: broken syntax, and anything but whitespace
	// after the object (json.Unmarshal's rule; a streaming decoder would
	// stop at the object and accept the second body).
	for _, body := range []string{
		"{nope",
		`{"algorithm":"sum","data":[1,2,3,4]} {"algorithm":"sum","data":[1,2,3,4]}`,
		`{"algorithm":"sum","data":[1,2,3,4]}x`,
	} {
		resp, err := http.Post(h.base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Bad Request-Timeout header.
	req, _ := http.NewRequest(http.MethodPost, h.base+"/v1/jobs", strings.NewReader("{}"))
	req.Header.Set(api.RequestTimeoutHeader, "yesterday")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d, want 400", resp.StatusCode)
	}

	// Unknown job: 404 on status, result and events.
	for _, path := range []string{"/v1/jobs/999999", "/v1/jobs/999999/result", "/v1/jobs/999999/events"} {
		resp, err := http.Get(h.base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Non-numeric job id: 400.
	resp, err = http.Get(h.base + "/v1/jobs/banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", resp.StatusCode)
	}

	// Bad drain device: 400 unwrapping to ErrBadParam.
	if err := h.cli.Drain(ctx, 42); !errors.Is(err, dcerr.ErrBadParam) {
		t.Fatalf("drain of bogus device: %v, want ErrBadParam", err)
	}
}

// TestBackpressure429 saturates a tiny admission queue and checks overflow
// surfaces remotely as 429 + Retry-After, unwrapping to ErrQueueFull.
func TestBackpressure429(t *testing.T) {
	h := newHarness(t, []serve.Option{serve.WithQueueDepth(1), serve.WithMaxInFlight(1)})
	ctx := context.Background()
	data := workload.Uniform(1<<16, 3)
	// The only slot stays taken until every submission below has had its
	// answer: one of them fits the queue, the rest must bounce.
	release := holdSlots(t, h.pool, 1)

	var mu sync.Mutex
	var handles []*client.Handle
	saw429 := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				hd, err := h.cli.Submit(ctx, api.JobRequest{Algorithm: "mergesort", Data: data})
				if err == nil {
					mu.Lock()
					handles = append(handles, hd)
					mu.Unlock()
					continue
				}
				var apiErr *client.Error
				if !errors.As(err, &apiErr) {
					t.Errorf("submit: %v", err)
					return
				}
				if apiErr.Status != http.StatusTooManyRequests {
					t.Errorf("submit: status %d, want 429 (err %v)", apiErr.Status, err)
					return
				}
				if apiErr.RetryAfter <= 0 {
					t.Errorf("429 without Retry-After hint: %+v", apiErr)
					return
				}
				if !errors.Is(err, dcerr.ErrQueueFull) {
					t.Errorf("429 does not unwrap to ErrQueueFull: %v", err)
					return
				}
				mu.Lock()
				saw429++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(handles) != 1 || saw429 != 8*4-1 {
		t.Fatalf("%d accepted and %d refused with 429, want 1 and %d: queue depth 1 behind a held slot", len(handles), saw429, 8*4-1)
	}
	if got := h.reg.Counter(api.MetricStatus4xx).Value(); got != uint64(saw429) {
		t.Errorf("%s = %d, want %d: every 429 is a 4xx", api.MetricStatus4xx, got, saw429)
	}
	// Every accepted job still completes correctly despite the overload.
	release()
	for _, hd := range handles {
		res, err := hd.Wait(ctx)
		if err != nil {
			t.Fatalf("accepted job %d failed: %v", hd.ID(), err)
		}
		if !sort.SliceIsSorted(res.Sorted, func(i, j int) bool { return res.Sorted[i] < res.Sorted[j] }) || len(res.Sorted) != len(data) {
			t.Fatalf("accepted job %d: result not the sorted input", hd.ID())
		}
	}
}

// TestDeadlinePropagation submits with a microscopic Request-Timeout and
// checks the job settles with the canceled taxonomy over the wire (504).
func TestDeadlinePropagation(t *testing.T) {
	h := newHarness(t, []serve.Option{serve.WithMaxInFlight(1)})
	ctx := context.Background()

	// The only slot is held, so the doomed job queues, and it stays held
	// until the job's 5ms budget is certainly spent: the deadline has to be
	// what settles the job, however fast the sort would have been.
	release := holdSlots(t, h.pool, 1)
	// Submit with an explicit 5ms Request-Timeout (raw HTTP, so the tiny
	// budget does not also strangle the submission round trip).
	payload, err := json.Marshal(api.JobRequest{Algorithm: "mergesort", Data: workload.Uniform(1<<16, 9)})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, h.base+"/v1/jobs", strings.NewReader(string(payload)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestTimeoutHeader, "5ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc api.JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with timeout: status %d, want 202", resp.StatusCode)
	}
	// The budget started before the 202 was written; a lower bound on the
	// wait, not a race.
	time.Sleep(10 * time.Millisecond)
	release()
	doomed := h.cli.Job(acc.ID)
	_, werr := doomed.Wait(ctx)
	if !errors.Is(werr, dcerr.ErrCanceled) {
		t.Fatalf("doomed job: %v, want ErrCanceled over the wire", werr)
	}
	var apiErr *client.Error
	if !errors.As(werr, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("doomed job: %v, want 504", werr)
	}
	st, err := doomed.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Error == nil || st.Error.Kind != "canceled" {
		t.Fatalf("doomed status %+v, want done with canceled error", st)
	}
}

// TestResultWaitTimeout checks a bounded result read on a running job comes
// back 504/"canceled" while the job keeps running, and a later unbounded
// read still gets the result.
func TestResultWaitTimeout(t *testing.T) {
	h := newHarness(t, []serve.Option{serve.WithMaxInFlight(1)})
	ctx := context.Background()
	data := workload.Uniform(1<<16, 5)
	hd, err := h.cli.Submit(ctx, api.JobRequest{Algorithm: "scan", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, cancel := context.WithTimeout(ctx, time.Millisecond)
	_, werr := hd.Wait(shortCtx)
	cancel()
	if werr == nil {
		// Fast machine: job finished inside 1ms; nothing left to assert.
		return
	}
	var apiErr *client.Error
	if errors.As(werr, &apiErr) && apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("bounded wait: status %d, want 504 (%v)", apiErr.Status, werr)
	}
	res, err := hd.Wait(ctx)
	if err != nil {
		t.Fatalf("second wait: %v", err)
	}
	if len(res.Scan) != len(data) {
		t.Fatalf("scan result length %d, want %d", len(res.Scan), len(data))
	}
}

// TestEventsStream checks the SSE feed: an initial status, at least one
// per-level span from the recorder, and a terminal done event with a report.
func TestEventsStream(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	data := workload.Uniform(1<<12, 17)
	hd, err := h.cli.Submit(ctx, api.JobRequest{Algorithm: "mergesort", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var types []string
	levels := map[int]bool{}
	streamCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err = hd.Stream(streamCtx, func(ev api.Event) error {
		mu.Lock()
		defer mu.Unlock()
		types = append(types, ev.Type)
		if ev.Type == "span" && (ev.Unit == "cpu" || ev.Unit == "gpu") {
			levels[ev.Level] = true
		}
		if ev.Type == "done" {
			if ev.Status == nil || ev.Status.State != "done" || ev.Status.Report == nil {
				t.Errorf("done event without settled status: %+v", ev)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(types) < 2 || types[0] != "status" || types[len(types)-1] != "done" {
		t.Fatalf("event sequence %v, want status ... done", types)
	}
	sawSpan := false
	for _, ty := range types {
		if ty == "span" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Fatal("no span events streamed; recorder wiring broken")
	}
	if len(levels) < 2 {
		t.Fatalf("per-level progress covered levels %v, want >= 2 distinct levels", levels)
	}
}

// TestShutdownDrains checks Shutdown finishes in-flight jobs before the
// listener closes: a job accepted pre-shutdown still completes and its
// result stays readable until the listener actually closes, while new
// submissions are refused with 503. A Serve that starts after the drain
// began closes its listener and returns nil instead of serving forever.
func TestShutdownDrains(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.New(be, serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := api.New(pool, api.WithEventPoll(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cli := client.New("http://" + ln.Addr().String())
	ctx := context.Background()

	// The job accepted before the shutdown queues behind a held slot, so
	// the drain cannot finish before the refusal below has been seen.
	release := holdSlots(t, pool, 1)
	data := workload.Uniform(1<<16, 23)
	hd, err := cli.Submit(ctx, api.JobRequest{Algorithm: "mergesort", Data: data})
	if err != nil {
		t.Fatal(err)
	}

	shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(shCtx) }()

	// Admission must close promptly even though the job is still waiting.
	probe := workload.Uniform(64, 24)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cli.Submit(ctx, api.JobRequest{Algorithm: "sum", Data: probe})
		var apiErr *client.Error
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
			if !errors.Is(err, dcerr.ErrServerClosed) {
				t.Fatalf("drain refusal does not unwrap to ErrServerClosed: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never refused during drain (last err %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) with job %d still queued", err, hd.ID())
	default:
	}
	release()

	// The accepted job must settle successfully and the server must wait
	// for it before closing the listener.
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Listener is closed now; the accepted job must already have settled
	// cleanly (drain completed all in-flight work before the listener
	// closed). The blocker is the other completion.
	if st := pool.Stats(); st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("pool stats %+v: job %d did not settle before listener close", st, hd.ID())
	}

	late, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(late); err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if _, err := late.Accept(); err == nil {
		t.Fatal("Serve after Shutdown left its listener open")
	}
}

// TestShutdownAdmissionAtomic submits from several goroutines while Shutdown
// runs, many times over: a submission is either refused or registered with
// the drain wait before that wait starts. Once Shutdown has returned, no
// admitted job is unsettled and no further job reaches the pool — at the
// commits where the handler tested draining long before it registered, one
// could — and under -race the WaitGroup sees no Add from zero beside Wait.
func TestShutdownAdmissionAtomic(t *testing.T) {
	body, err := json.Marshal(api.JobRequest{Algorithm: "sum", Data: workload.Uniform(1<<11, 29)})
	if err != nil {
		t.Fatal(err)
	}
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	for round := 0; round < 25; round++ {
		pool, err := serve.New(be)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := api.New(pool)
		if err != nil {
			t.Fatal(err)
		}
		var clients sync.WaitGroup
		warm := make(chan struct{}, 4) // one send per client, after its first accepted job
		for c := 0; c < cap(warm); c++ {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for accepted := 0; ; {
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
					switch rec.Code {
					case http.StatusAccepted:
						if accepted++; accepted == 1 {
							warm <- struct{}{}
						}
					case http.StatusTooManyRequests: // the pool's refusal: registered, then released
					case http.StatusServiceUnavailable:
						if accepted == 0 {
							t.Errorf("round %d: refused as draining before Shutdown was called", round)
							warm <- struct{}{}
						}
						return
					default:
						t.Errorf("round %d: submit answered %d: %s", round, rec.Code, rec.Body)
						if accepted == 0 {
							warm <- struct{}{}
						}
						return
					}
				}
			}()
		}
		for c := 0; c < cap(warm); c++ {
			<-warm
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		atReturn, inFlight := pool.Stats().Submitted, srv.JobsInFlight()
		clients.Wait()
		if inFlight != 0 {
			t.Errorf("round %d: %d admitted jobs unsettled when Shutdown returned", round, inFlight)
		}
		if after := pool.Stats().Submitted; after != atReturn {
			t.Errorf("round %d: %d jobs reached the pool after Shutdown returned", round, after-atReturn)
		}
		pool.Close()
	}
}

// TestMetricsAndRequestIDs checks api_* metrics advance and request ids
// round-trip through the X-Request-Id header.
func TestMetricsAndRequestIDs(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	data := workload.Uniform(256, 29)
	hd, err := h.cli.Submit(ctx, api.JobRequest{Algorithm: "sum", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	raw, err := h.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{"api_requests_total", "api_requests_submit_total", "api_requests_result_total", "api_status_2xx_total"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("metrics snapshot missing counter %s (have %d)", key, len(snap.Counters))
		}
	}
	if snap.Counters["api_requests_total"] == 0 || snap.Counters["api_status_2xx_total"] == 0 {
		t.Fatalf("api request counters did not advance: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["api_latency_seconds_submit"]; !ok {
		t.Fatal("metrics snapshot missing submit latency histogram")
	}

	// The recorder's spans download as a Chrome trace: the job's batches are
	// in it.
	resp, err := http.Get(h.base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph  string `json:"ph"`
		PID int    `json:"pid"`
	}
	err = json.NewDecoder(resp.Body).Decode(&events)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d, %v", resp.StatusCode, err)
	}
	jobEvents := 0
	for _, ev := range events {
		if ev.PID == int(hd.ID())+1 && ev.Ph == "X" {
			jobEvents++
		}
	}
	if jobEvents == 0 {
		t.Fatalf("/debug/trace: %d events, none for job %d", len(events), hd.ID())
	}

	// Request id: echoed when supplied, generated otherwise; stamped into
	// api trace spans.
	req, _ := http.NewRequest(http.MethodGet, h.base+"/healthz", nil)
	req.Header.Set("X-Request-Id", "req-test-77")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-test-77" {
		t.Fatalf("X-Request-Id echo = %q, want req-test-77", got)
	}
	sawAPI := false
	for _, sp := range h.rec.Spans() {
		if sp.Unit == "api" && strings.Contains(sp.Label, "rid=req-test-77") {
			sawAPI = true
		}
	}
	if !sawAPI {
		t.Fatal("no api span carrying the supplied request id")
	}
}

// TestReliabilityOverWire submits a job with a retry policy through the wire
// and checks attempts are reported; the Fresh factory server-side must make
// re-execution possible without client involvement.
func TestReliabilityOverWire(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	data := workload.Uniform(512, 31)
	hd, err := h.cli.Submit(ctx, api.JobRequest{
		Algorithm:   "mergesort",
		Data:        data,
		Reliability: &api.Reliability{MaxRetries: 2, BackoffMS: 1, DeadlineMS: 60_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := hd.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts < 1 {
		t.Fatalf("attempts %d, want >= 1", st.Attempts)
	}
}
