package main

// The binary's own wiring: start, the signal drain and teardown. What the
// serving stack behind it does is pinned by the tests of internal/serve and
// internal/api.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/serve/servetest"
	"repro/internal/workload"
)

// testConfig is a small stack on a kernel-chosen loopback port.
func testConfig() config {
	return config{Addr: "127.0.0.1:0", Workers: 2, Lanes: 4, Devices: 1, InFlight: 2, QDepth: 4}
}

// settleGoroutines fails the test unless the goroutine count returns to base
// (plus slack for runtime helpers) within two seconds.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before start, %d after teardown", base, runtime.NumGoroutine())
		}
	}
}

// TestSignalDrain sends the process SIGTERM while accepted jobs wait for an
// execution slot: new submissions are refused with 503, every accepted job
// still returns its sorted input, and only then does the listener close.
func TestSignalDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig()
	s, err := start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.addr
	ctx := context.Background()

	// Held slots, not the run time of a real job, keep the drain window
	// open: the jobs accepted over the wire stay queued until the 503 has
	// been seen.
	release, err := servetest.Hold(s.pool, cfg.Devices*cfg.InFlight)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	cli := hybriddc.NewAPIClient(url, hybriddc.WithAPIBinary())
	resultRequests := func() uint64 {
		t.Helper()
		raw, err := cli.Metrics(ctx)
		var snap hybriddc.MetricsSnapshot
		if err == nil {
			err = json.Unmarshal(raw, &snap)
		}
		if err != nil {
			t.Fatal(err)
		}
		return snap.Counters["api_requests_result_total"]
	}
	waitsBefore := resultRequests()
	results := make(chan error, cfg.QDepth)
	for i := range cfg.QDepth {
		data := workload.Uniform(1<<12, int64(i))
		h, err := cli.Submit(ctx, hybriddc.APIJobRequest{Algorithm: "mergesort", Data: data, Strategy: "seq-1cpu"})
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(data)
		slices.Sort(want)
		go func() {
			res, err := h.Wait(ctx)
			if err == nil && !slices.Equal(res.Sorted, want) {
				err = fmt.Errorf("job %d: result is not the sorted input", h.ID())
			}
			results <- err
		}()
	}
	// Every result wait is parked in the server before the signal, so none
	// of them races the listener close.
	for deadline := time.Now().Add(10 * time.Second); resultRequests() < waitsBefore+uint64(cfg.QDepth); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("result waits never reached the server")
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// A fresh connection per probe: the drain closes idle connections, and a
	// probe riding one would read that as the listener closing. Until the
	// signal lands the full queue answers 429.
	probe := hybriddc.NewAPIClient(url,
		hybriddc.WithAPIHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		_, err := probe.Submit(ctx, hybriddc.APIJobRequest{Algorithm: "sum", Data: workload.Uniform(64, 99)})
		var apiErr *hybriddc.APIClientError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never refused with 503 during the drain (last: %v)", err)
		}
	}

	release()
	for range cfg.QDepth {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	if err := s.wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.pool.Stats(); st.Failed != 0 || st.Completed != st.Submitted {
		t.Errorf("pool stats after the drain: %+v, want every job completed", st)
	}
	settleGoroutines(t, base)
}

// TestStartAddressInUse: a start that fails at the listener returns the
// error and leaves nothing running, the backends' worker goroutines
// included.
func TestStartAddressInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.Addr = ln.Addr().String()
	if s, err := start(cfg); err == nil {
		s.shutdown()
		s.wait()
		t.Fatalf("start on %s, an address in use, succeeded", cfg.Addr)
	}
	settleGoroutines(t, base)
}

// TestShutdownWithoutSignal: a call starts the same drain a signal does, and
// the stack winds down to nothing, the goroutine waiting for the signal
// included.
func TestShutdownWithoutSignal(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.shutdown()
	if err := s.wait(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}
