package client_test

// The client's own tests: a real serve.Server on the native backend behind an
// httptest server, driven only through the client. The pool's single
// execution slot can be held by a gated job, so the backpressure, deadline
// and cancellation cases do not depend on how fast the machine sorts.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/dcerr"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/workload"
)

// harness is a real serving stack plus a record of the Request-Timeout
// header of every request that reached it.
type harness struct {
	pool *serve.Server
	base string

	mu       sync.Mutex
	timeouts map[string][]string // "METHOD /path" → header values, in order
}

func newHarness(t *testing.T, poolOpts ...serve.Option) *harness {
	t.Helper()
	be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.New(be, poolOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := api.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{pool: pool, timeouts: map[string][]string{}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		key := r.Method + " " + r.URL.Path
		h.timeouts[key] = append(h.timeouts[key], r.Header.Get(api.RequestTimeoutHeader))
		h.mu.Unlock()
		srv.Handler().ServeHTTP(w, r)
	}))
	h.base = ts.URL
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
		pool.Close()
		be.Close()
	})
	return h
}

// lastTimeout returns the Request-Timeout header of the latest request to a
// route.
func (h *harness) lastTimeout(t *testing.T, route string) string {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	got := h.timeouts[route]
	if len(got) == 0 {
		t.Fatalf("no request reached %s", route)
	}
	return got[len(got)-1]
}

// holdSlot occupies one execution slot of the pool and returns the function
// that frees it (idempotent; also run at cleanup).
func (h *harness) holdSlot(t *testing.T) (release func()) {
	t.Helper()
	release, err := servetest.Hold(h.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return release
}

// waitFor polls until cond holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRoundTrips runs each algorithm through Submit and Wait on both wire
// formats and checks the answers against plain Go: one at a time, then all
// three algorithms under all five strategies at once, one client each.
func TestRoundTrips(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	data := workload.Uniform(1<<10, 7)
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	prefix := make([]int64, len(data))
	var total int64
	for i, v := range data {
		total += int64(v)
		prefix[i] = total
	}

	for _, mode := range []struct {
		name string
		opts []client.Option
	}{{"json", nil}, {"binary", []client.Option{client.WithBinary()}}} {
		cli := client.New(h.base+"/", mode.opts...) // the trailing slash must not double up
		run := func(algorithm, strategy string) api.JobResult {
			t.Helper()
			hd, err := cli.Submit(ctx, api.JobRequest{Algorithm: algorithm, Data: data, Strategy: strategy, Priority: 2})
			if err != nil {
				t.Fatalf("%s %s: submit: %v", mode.name, algorithm, err)
			}
			res, err := hd.Wait(ctx)
			if err != nil {
				t.Fatalf("%s %s: wait: %v", mode.name, algorithm, err)
			}
			if res.ID != hd.ID() || res.Report.Algorithm == "" {
				t.Fatalf("%s %s: result id %d report %+v, want id %d and a report", mode.name, algorithm, res.ID, res.Report, hd.ID())
			}
			// A handle made from the bare ID reads the same job.
			st, err := cli.Job(hd.ID()).Status(ctx)
			if err != nil || st.State != "done" || st.Report == nil {
				t.Fatalf("%s %s: status %+v, %v, want done with a report", mode.name, algorithm, st, err)
			}
			return res
		}
		if res := run("mergesort", "auto"); !slices.Equal(res.Sorted, sorted) {
			t.Errorf("%s: mergesort result differs from slices.Sort", mode.name)
		}
		if res := run("scan", "bf-cpu"); !slices.Equal(res.Scan, prefix) {
			t.Errorf("%s: scan result differs from the running sum", mode.name)
		}
		if res := run("sum", "seq-1cpu"); res.Sum == nil || *res.Sum != total {
			t.Errorf("%s: sum = %v, want %d", mode.name, res.Sum, total)
		}

		var wg sync.WaitGroup
		for _, strategy := range []string{"seq-1cpu", "bf-cpu", "basic-hybrid", "advanced-hybrid", "gpu-only"} {
			for _, algorithm := range []string{"mergesort", "scan", "sum"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A client of its own: its own connections, like a
					// separate remote process.
					hd, err := client.New(h.base, mode.opts...).Submit(ctx, api.JobRequest{
						Algorithm: algorithm, Data: data, Strategy: strategy,
						Crossover: 3, Alpha: 0.5, Y: 4,
					})
					if err != nil {
						t.Errorf("%s %s/%s: submit: %v", mode.name, algorithm, strategy, err)
						return
					}
					res, err := hd.Wait(ctx)
					if err != nil {
						t.Errorf("%s %s/%s: wait: %v", mode.name, algorithm, strategy, err)
						return
					}
					var ok bool
					switch algorithm {
					case "mergesort":
						ok = slices.Equal(res.Sorted, sorted)
					case "scan":
						ok = slices.Equal(res.Scan, prefix)
					default:
						ok = res.Sum != nil && *res.Sum == total
					}
					if !ok {
						t.Errorf("%s %s/%s: result differs from plain Go", mode.name, algorithm, strategy)
					}
				}()
			}
		}
		wg.Wait()

		if ok, err := cli.Healthy(ctx); err != nil || !ok {
			t.Errorf("%s: Healthy = %v, %v", mode.name, ok, err)
		}
		raw, err := cli.Metrics(ctx)
		if err != nil || !json.Valid(raw) {
			t.Errorf("%s: Metrics = %q, %v, want a JSON document", mode.name, raw, err)
		}
	}
}

// TestQueueFull fills the one-deep admission queue behind a held slot: the
// next submission is refused with 429 + Retry-After and classifies as
// ErrQueueFull, on both wire formats, and the queued job still completes.
func TestQueueFull(t *testing.T) {
	h := newHarness(t, serve.WithQueueDepth(1), serve.WithMaxInFlight(1))
	release := h.holdSlot(t)
	ctx := context.Background()
	req := api.JobRequest{Algorithm: "sum", Data: workload.Uniform(256, 3)}

	queued, err := client.New(h.base).Submit(ctx, req)
	if err != nil {
		t.Fatalf("the queue's one place was refused: %v", err)
	}
	for _, cli := range []*client.Client{client.New(h.base), client.New(h.base, client.WithBinary())} {
		_, err := cli.Submit(ctx, req)
		var apiErr *client.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("submit to a full queue: %v, want *client.Error", err)
		}
		if apiErr.Status != http.StatusTooManyRequests || apiErr.Kind != "queue-full" ||
			apiErr.RetryAfter != time.Second || apiErr.Message == "" {
			t.Errorf("full queue: %+v, want 429 queue-full with Retry-After 1s and a message", apiErr)
		}
		if !errors.Is(err, dcerr.ErrQueueFull) {
			t.Errorf("full queue: %v does not classify as ErrQueueFull", err)
		}
	}
	release()
	if _, err := queued.Wait(ctx); err != nil {
		t.Errorf("queued job after the overload: %v", err)
	}
}

// TestEverySentinelSurvivesTheWire: each row of dcerr.HTTPTable, written the
// way the server writes it, comes back from every client call as an error
// that errors.Is its sentinel and carries the row's status and kind; an error
// outside the taxonomy keeps its status and text and unwraps to nothing.
func TestEverySentinelSurvivesTheWire(t *testing.T) {
	var serving atomic.Pointer[dcerr.HTTPMapping] // nil: answer outside the taxonomy
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		row := serving.Load()
		if row == nil {
			http.Error(w, "upstream fell over\n", http.StatusInternalServerError)
			return
		}
		if row.Status == http.StatusTooManyRequests || row.Status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(row.Status)
		json.NewEncoder(w).Encode(api.ErrorBody{Error: "api: " + row.Err.Error(), Kind: row.Kind})
	}))
	defer ts.Close()
	ctx := context.Background()

	calls := map[string]func(*client.Client) error{
		"Submit": func(c *client.Client) error {
			_, err := c.Submit(ctx, api.JobRequest{Algorithm: "sum", Data: []int32{1, 2}})
			return err
		},
		"Wait":   func(c *client.Client) error { _, err := c.Job(7).Wait(ctx); return err },
		"Status": func(c *client.Client) error { _, err := c.Job(7).Status(ctx); return err },
		"Stream": func(c *client.Client) error { return c.Job(7).Stream(ctx, func(api.Event) error { return nil }) },
		"Drain":  func(c *client.Client) error { return c.Drain(ctx, 0) },
		"Metrics": func(c *client.Client) error {
			_, err := c.Metrics(ctx)
			return err
		},
	}
	clients := map[string]*client.Client{"json": client.New(ts.URL), "binary": client.New(ts.URL, client.WithBinary())}
	for _, row := range dcerr.HTTPTable {
		serving.Store(&row)
		for mode, cli := range clients {
			for name, call := range calls {
				err := call(cli)
				var apiErr *client.Error
				if !errors.As(err, &apiErr) {
					t.Fatalf("%s %s %s: %v, want *client.Error", mode, name, row.Kind, err)
				}
				if !errors.Is(err, row.Err) {
					t.Errorf("%s %s: %v does not classify as %v", mode, name, err, row.Err)
				}
				if apiErr.Status != row.Status || apiErr.Kind != row.Kind {
					t.Errorf("%s %s %s: status %d kind %q, want %d", mode, name, row.Kind, apiErr.Status, apiErr.Kind, row.Status)
				}
				if backoff := row.Status == 429 || row.Status == 503; (apiErr.RetryAfter > 0) != backoff {
					t.Errorf("%s %s %s: RetryAfter %v, want set only on 429/503", mode, name, row.Kind, apiErr.RetryAfter)
				}
			}
		}
	}

	serving.Store(nil)
	for name, call := range calls {
		err := call(clients["json"])
		var apiErr *client.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s on a plain 500: %v, want *client.Error", name, err)
		}
		if apiErr.Status != 500 || apiErr.Kind != "" || apiErr.Message != "upstream fell over" || errors.Unwrap(apiErr) != nil {
			t.Errorf("%s on a plain 500: %+v (unwraps to %v), want status, trimmed text and no sentinel",
				name, apiErr, errors.Unwrap(apiErr))
		}
	}
}

// TestSentinelsFromARealServer: the classifications the stack itself can
// produce on demand arrive intact.
func TestSentinelsFromARealServer(t *testing.T) {
	h := newHarness(t)
	cli := client.New(h.base)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		req  api.JobRequest
		want error
	}{
		{"unknown algorithm", api.JobRequest{Algorithm: "quickhull", Data: []int32{1, 2}}, dcerr.ErrBadParam},
		{"unknown strategy", api.JobRequest{Algorithm: "sum", Data: []int32{1, 2}, Strategy: "warp"}, dcerr.ErrBadParam},
		{"three elements", api.JobRequest{Algorithm: "scan", Data: []int32{1, 2, 3}}, dcerr.ErrNotPowerOfTwo},
	} {
		if _, err := cli.Submit(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := cli.Drain(ctx, 42); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("drain of a device the pool lacks: %v, want ErrBadParam", err)
	}
	_, err := cli.Job(1 << 40).Wait(ctx)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("wait on an unknown job: %v, want a 404", err)
	}
}

// TestDeadlinePropagation: a context deadline travels as Request-Timeout on
// Submit, Wait and Drain (and nothing travels without one), and the server
// enforces it as the job's budget — a job still queued when its submitter's
// deadline passes settles as ErrCanceled / 504 instead of running.
func TestDeadlinePropagation(t *testing.T) {
	h := newHarness(t, serve.WithMaxInFlight(1))
	release := h.holdSlot(t)
	cli := client.New(h.base, client.WithBinary())
	bg := context.Background()
	req := api.JobRequest{Algorithm: "sum", Data: workload.Uniform(256, 5)}
	sentOn := func(route string, budget time.Duration) {
		t.Helper()
		sent, err := api.ParseTimeout(h.lastTimeout(t, route))
		if err != nil || sent <= 0 || sent > budget {
			t.Errorf("Request-Timeout on %s = %v, %v, want within (0, %v]", route, sent, err, budget)
		}
	}

	// A bounded wait on a job that cannot start: the wait gives up — the
	// client's own deadline or the server's 504, whichever lands first — and
	// the job is untouched.
	alive, err := cli.Submit(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.lastTimeout(t, "POST /v1/jobs"); got != "" {
		t.Errorf("Request-Timeout on a submit without a deadline = %q, want none", got)
	}
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	_, werr := alive.Wait(ctx)
	cancel()
	if !errors.Is(werr, context.DeadlineExceeded) && !errors.Is(werr, dcerr.ErrCanceled) {
		t.Fatalf("bounded wait on a queued job: %v, want a deadline error", werr)
	}
	sentOn("GET /v1/jobs/"+jobPath(alive)+"/result", 50*time.Millisecond)

	ctx, cancel = context.WithTimeout(bg, time.Minute)
	if err := cli.Drain(ctx, 42); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("drain of a device the pool lacks: %v, want ErrBadParam", err)
	}
	cancel()
	sentOn("POST /v1/drain/42", time.Minute)

	// A job submitted under a deadline that passes while it is queued: once
	// the slot frees, the server skips it.
	const budget = 200 * time.Millisecond
	ctx, cancel = context.WithTimeout(bg, budget)
	doomed, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit inside its deadline: %v", err)
	}
	sentOn("POST /v1/jobs", budget)
	cancel()
	// The server's clock for the job started when the request arrived, later
	// than the client's by the transit time: wait out twice the budget.
	time.Sleep(2 * budget)
	release()

	_, werr = doomed.Wait(bg)
	var apiErr *client.Error
	if !errors.Is(werr, dcerr.ErrCanceled) || !errors.As(werr, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Errorf("job past its submitter's deadline: %v, want ErrCanceled as a 504", werr)
	}
	if got := h.lastTimeout(t, "GET /v1/jobs/"+jobPath(doomed)+"/result"); got != "" {
		t.Errorf("Request-Timeout on a wait without a deadline = %q, want none", got)
	}
	if res, err := alive.Wait(bg); err != nil || res.Sum == nil {
		t.Errorf("the job a bounded wait gave up on: %+v, %v, want its sum", res, err)
	}
}

// TestCancelMidWait: canceling the context of a blocked Wait (and of a
// blocked Stream) returns promptly with the context's error and leaves the
// job to finish.
func TestCancelMidWait(t *testing.T) {
	h := newHarness(t, serve.WithMaxInFlight(1))
	release := h.holdSlot(t)
	bg := context.Background()
	data := workload.Uniform(256, 9)
	var want int64
	for _, v := range data {
		want += int64(v)
	}

	for _, cli := range []*client.Client{client.New(h.base), client.New(h.base, client.WithBinary())} {
		hd, err := cli.Submit(bg, api.JobRequest{Algorithm: "sum", Data: data})
		if err != nil {
			t.Fatal(err)
		}
		route := "GET /v1/jobs/" + jobPath(hd) + "/result"
		ctx, cancel := context.WithCancel(bg)
		waited := make(chan error, 1)
		go func() {
			_, err := hd.Wait(ctx)
			waited <- err
		}()
		// Cancel only once the wait is parked on the server.
		waitFor(t, "the wait to reach the server", func() bool {
			h.mu.Lock()
			defer h.mu.Unlock()
			return len(h.timeouts[route]) > 0
		})
		cancel()
		select {
		case err := <-waited:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled wait: %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Wait did not return after its context was canceled")
		}

		ctx, cancel = context.WithCancel(bg)
		streamed := make(chan error, 1)
		go func() {
			streamed <- hd.Stream(ctx, func(ev api.Event) error {
				if ev.Type == "status" {
					cancel() // the feed is open and the job cannot finish: cancel mid-stream
				}
				return nil
			})
		}()
		select {
		case err := <-streamed:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled stream: %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Stream did not return after its context was canceled")
		}
		cancel()
		t.Cleanup(func() {
			res, err := hd.Wait(bg)
			if err != nil || res.Sum == nil || *res.Sum != want {
				t.Errorf("job after a canceled wait: %+v, %v, want sum %d", res, err, want)
			}
		})
	}
	release()
}

// TestStreamToDone follows a job's events to the terminal one.
func TestStreamToDone(t *testing.T) {
	h := newHarness(t)
	cli := client.New(h.base)
	ctx := context.Background()
	hd, err := cli.Submit(ctx, api.JobRequest{Algorithm: "scan", Data: workload.Uniform(1<<10, 2)})
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	if err := hd.Stream(ctx, func(ev api.Event) error { types = append(types, ev.Type); return nil }); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(types) < 2 || types[0] != "status" || types[len(types)-1] != "done" {
		t.Errorf("event types %v, want status … done", types)
	}
	stop := errors.New("enough")
	if err := hd.Stream(ctx, func(api.Event) error { return stop }); !errors.Is(err, stop) {
		t.Errorf("stream with a failing callback: %v, want the callback's error", err)
	}
}

func jobPath(h *client.Handle) string { return strconv.FormatUint(h.ID(), 10) }
