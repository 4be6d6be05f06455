package serve_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/algos/mergesort"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/faults"
	"repro/internal/hpu"
	"repro/internal/native"
	"repro/internal/serve"
	"repro/internal/workload"
)

// sizedGateAlg is a gateAlg with a configurable problem size, so placement
// tests can submit jobs of very different modeled cost that all block on
// the same gate.
type sizedGateAlg struct {
	gateAlg
	n int
}

func (s *sizedGateAlg) N() int { return s.n }

// newPoolBackends builds n independent native backends and registers their
// cleanup.
func newPoolBackends(t *testing.T, n int) []core.Backend {
	t.Helper()
	pool := make([]core.Backend, n)
	for i := range pool {
		be, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { be.Close() })
		pool[i] = be
	}
	return pool
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := serve.NewPool(nil); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("empty pool: %v, want ErrBadParam", err)
	}
	be, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if _, err := serve.NewPool([]core.Backend{be, nil}); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("nil pool member: %v, want ErrBadParam", err)
	}
	closed, err := native.New(native.Config{CPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err := serve.NewPool([]core.Backend{be, closed}); !errors.Is(err, dcerr.ErrBackendClosed) {
		t.Errorf("closed pool member: %v, want ErrBackendClosed", err)
	}

	srv, err := serve.NewPool([]core.Backend{be})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddBackend(nil); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("AddBackend(nil): %v, want ErrBadParam", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddBackend(be); !errors.Is(err, dcerr.ErrServerClosed) {
		t.Errorf("AddBackend after Close: %v, want ErrServerClosed", err)
	}
	if err := srv.DrainBackend(context.Background(), 0); !errors.Is(err, dcerr.ErrServerClosed) {
		t.Errorf("DrainBackend after Close: %v, want ErrServerClosed", err)
	}
}

// TestPoolBitIdenticalToSingleDevice submits the same GPU-bound job mix to a
// single-device server and to a two-device pool and requires elementwise
// identical outputs — placement must never change results.
//
// The sim row is also the scale-out floor: on HPU1 simulators, whose clocks
// are deterministic virtual seconds, the two-device pool's makespan (its
// slowest device's clock) must beat the single device's by at least 1.6x.
func TestPoolBitIdenticalToSingleDevice(t *testing.T) {
	// Mergesorts at four sizes, rotating in blocks of four (a Latin square
	// over i/4) so every residue class of job indices mod 2 carries the same
	// total work however the pool interleaves its devices.
	const jobs = 64
	ctx := context.Background()

	// runAll serves the mix as one burst on a server over pool and returns
	// the outputs, the stats and the latest clock among the backends.
	runAll := func(t *testing.T, pool []core.Backend) (out [][]int32, st serve.Stats, makespan float64) {
		t.Helper()
		srv, err := serve.NewPool(pool, serve.WithQueueDepth(jobs))
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*serve.Handle, jobs)
		sorters := make([]*mergesort.Sorter, jobs)
		for i := 0; i < jobs; i++ {
			s, err := mergesort.New(workload.Uniform(1<<(12+(i+i/4)%4), int64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			sorters[i] = s
			h, err := srv.Submit(ctx, serve.Job{Alg: s, Strategy: serve.GPUOnly})
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		out = make([][]int32, jobs)
		for i, h := range handles {
			if _, err := h.Report(); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			out[i] = sorters[i].Result()
		}
		st = srv.Stats()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		for _, be := range pool {
			makespan = max(makespan, be.Now())
		}
		return out, st, makespan
	}

	simBackends := func(t *testing.T, n int) []core.Backend {
		pool := make([]core.Backend, n)
		for i := range pool {
			pool[i] = hpu.MustSim(hpu.HPU1())
		}
		return pool
	}
	for _, tc := range []struct {
		name     string
		backends func(*testing.T, int) []core.Backend
		floor    float64 // 0: wall-clock backends, no makespan claim
	}{
		{"native", newPoolBackends, 0},
		{"sim", simBackends, 1.6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, one := runAll(t, tc.backends(t, 1))
			// A device pulls its next job as soon as the host lets it, so
			// how a burst splits between the two clocks follows the host
			// scheduler: the floor is asked of the best of three bursts.
			var (
				got [][]int32
				st  serve.Stats
				two float64
			)
			for try := 1; ; try++ {
				got, st, two = runAll(t, tc.backends(t, 2))
				if one >= tc.floor*two || try == 3 {
					break
				}
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("job %d: length %d vs %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("job %d: pool result diverges from single-device at %d", i, j)
					}
				}
			}
			if one < tc.floor*two {
				t.Errorf("2-device makespan %gs vs 1-device %gs virtual: %.2fx, below the %.1fx floor",
					two, one, one/two, tc.floor)
			}
			if len(st.Devices) != 2 {
				t.Fatalf("Stats.Devices = %d entries, want 2", len(st.Devices))
			}
			var placed uint64
			for _, d := range st.Devices {
				placed += d.Placements
			}
			if placed != jobs {
				t.Errorf("placements sum = %d, want %d", placed, jobs)
			}
		})
	}
}

// TestPoolPlacementSkew pins placement under skewed job sizes: with one huge
// job occupying device 0, both following small jobs go to device 1, whose
// modeled backlog is far lighter — where a count of jobs in flight would tie
// and send the second one back to device 0.
func TestPoolPlacementSkew(t *testing.T) {
	t.Run("modeled-work", func(t *testing.T) {
		srv, err := serve.NewPool(newPoolBackends(t, 2),
			serve.WithMaxInFlight(2), serve.WithQueueDepth(16))
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		openGate := sync.OnceFunc(func() { close(gate) })
		defer openGate()
		submit := func(name string, n int) *serve.Handle {
			t.Helper()
			h, err := srv.Submit(context.Background(),
				serve.Job{Alg: &sizedGateAlg{gateAlg: gateAlg{Label: name, Gate: gate}, n: n}})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		// The huge job holds a device-0 slot.
		handles := []*serve.Handle{submit("huge", 1<<20)}
		handles = append(handles, submit("small-1", 2), submit("small-2", 2))
		st := srv.Stats()
		openGate()
		for _, h := range handles {
			if _, err := h.Report(); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if d0, d1 := st.Devices[0].Placements, st.Devices[1].Placements; d0 != 1 || d1 != 2 {
			t.Errorf("placements (d0, d1) = (%d, %d), want (1, 2): small jobs must avoid the loaded device", d0, d1)
		}
	})
}

// TestPoolBreakerIsolatesFaultyDevice is the re-route property: with faults
// injected into device 0 only, its breaker trips once and every subsequent
// GPU-bound job is served by device 1 — bit-identical results, zero sheds on
// the healthy device, zero ErrDegraded anywhere.
func TestPoolBreakerIsolatesFaultyDevice(t *testing.T) {
	ctx := context.Background()
	in, err := faults.New(faults.Config{Seed: 7, KernelErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewPool(newPoolBackends(t, 2),
		serve.WithQueueDepth(32),
		serve.WithBreaker(1, time.Minute),
		serve.WithDeviceFaults(0, in))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Sacrifice one job to trip device 0: both devices are idle, so the
	// placement tie-break sends it to device 0, where every attempt faults.
	s0, err := mergesort.New(workload.Uniform(1<<8, 1))
	if err != nil {
		t.Fatal(err)
	}
	h0, err := srv.Submit(ctx, serve.Job{Alg: s0, Strategy: serve.GPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h0.Report(); !errors.Is(err, dcerr.ErrDeviceFault) {
		t.Fatalf("tripping job: %v, want ErrDeviceFault", err)
	}
	if st := srv.Stats().Devices[0].BreakerState; st != serve.BreakerOpen {
		t.Fatalf("device 0 breaker = %d after the fault, want open", st)
	}

	const jobs = 12
	handles := make([]*serve.Handle, jobs)
	sorters := make([]*mergesort.Sorter, jobs)
	for i := 0; i < jobs; i++ {
		s, err := mergesort.New(workload.Uniform(1<<8, int64(i+2)))
		if err != nil {
			t.Fatal(err)
		}
		sorters[i] = s
		handles[i], err = srv.Submit(ctx, serve.Job{Alg: s, Strategy: serve.GPUOnly})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatalf("job %d on the healthy pool: %v", i, err)
		}
		if !workload.IsSorted(sorters[i].Result()) {
			t.Fatalf("job %d: wrong result", i)
		}
	}

	st := srv.Stats()
	if st.Degraded != 0 {
		t.Errorf("Degraded = %d, want 0: healthy-device jobs must never shed", st.Degraded)
	}
	if got := st.Devices[1].Placements; got != jobs {
		t.Errorf("healthy device placements = %d, want %d", got, jobs)
	}
	if st.Devices[0].BreakerTrips < 1 || st.BreakerTrips < 1 {
		t.Errorf("breaker trips (device %d, total %d), want >= 1", st.Devices[0].BreakerTrips, st.BreakerTrips)
	}
	if st.Devices[1].BreakerTrips != 0 {
		t.Errorf("healthy device tripped %d times, want 0", st.Devices[1].BreakerTrips)
	}
	if st.Devices[1].BreakerState != serve.BreakerClosed {
		t.Errorf("healthy device breaker = %d, want closed", st.Devices[1].BreakerState)
	}
}

// TestPoolDrainValidation covers the drain state machine's refusals: unknown
// ids, double drains, and the last-active-device guard.
func TestPoolDrainValidation(t *testing.T) {
	ctx := context.Background()
	srv, err := serve.NewPool(newPoolBackends(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, id := range []int{-1, 2, 99} {
		if err := srv.DrainBackend(ctx, id); !errors.Is(err, dcerr.ErrBadParam) {
			t.Errorf("drain device %d: %v, want ErrBadParam", id, err)
		}
	}
	if err := srv.DrainBackend(ctx, 1); err != nil {
		t.Fatalf("drain device 1: %v", err)
	}
	if err := srv.DrainBackend(ctx, 1); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("drain removed device: %v, want ErrBadParam", err)
	}
	if err := srv.DrainBackend(ctx, 0); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("drain last active device: %v, want ErrBadParam", err)
	}
	st := srv.Stats()
	if !st.Devices[1].Removed || st.Devices[0].Removed {
		t.Errorf("drain state: %+v", st.Devices)
	}
	if st.Drains != 1 {
		t.Errorf("Drains = %d, want 1", st.Drains)
	}
}

// TestPoolDrainAddStress hammers a pool with concurrent submissions while a
// device drains out and a replacement joins: every accepted job must settle
// cleanly, jobs in flight on the drained device included. Run under -race
// this is the concurrency gate for the topology-control path.
func TestPoolDrainAddStress(t *testing.T) {
	const jobs = 48
	ctx := context.Background()
	srv, err := serve.NewPool(newPoolBackends(t, 2),
		serve.WithQueueDepth(jobs), serve.WithMaxInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var (
		mu      sync.Mutex
		handles []*serve.Handle
		sorters []*mergesort.Sorter
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < jobs/4; i++ {
				s, err := mergesort.New(workload.Uniform(1<<9, int64(w*100+i+1)))
				if err != nil {
					t.Error(err)
					return
				}
				h, err := srv.Submit(ctx, serve.Job{Alg: s, Strategy: serve.GPUOnly})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				handles = append(handles, h)
				sorters = append(sorters, s)
				mu.Unlock()
			}
		}(w)
	}

	// Drain device 1 mid-stream, then grow the pool back.
	if err := srv.DrainBackend(ctx, 1); err != nil {
		t.Errorf("drain: %v", err)
	}
	replacement, err := native.New(native.Config{CPUWorkers: 2, DeviceLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replacement.Close() })
	id, err := srv.AddBackend(replacement)
	if err != nil {
		t.Fatalf("AddBackend: %v", err)
	}
	if id != 2 {
		t.Errorf("new device id = %d, want 2", id)
	}
	wg.Wait()

	for i, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !workload.IsSorted(sorters[i].Result()) {
			t.Fatalf("job %d: wrong result", i)
		}
	}
	st := srv.Stats()
	if !st.Devices[1].Removed {
		t.Error("device 1 not removed after drain")
	}
	if st.Completed != jobs {
		t.Errorf("Completed = %d, want %d", st.Completed, jobs)
	}
	var placed uint64
	for _, d := range st.Devices {
		placed += d.Placements
	}
	// No breaker is configured, so nothing is requeued: every job is placed
	// exactly once.
	if placed != jobs {
		t.Errorf("placements sum = %d, want %d", placed, jobs)
	}
}

// TestPlacementIsSynchronous pins that Submit's return is the
// synchronisation point: a job that finds a free slot is placed and counted
// in flight before Submit returns, the next goes to the other idle device,
// and one that finds none waits in the queue. The server itself runs no
// goroutine while idle.
func TestPlacementIsSynchronous(t *testing.T) {
	pool := newPoolBackends(t, 2)
	base := runtime.NumGoroutine()
	srv, err := serve.NewPool(pool, serve.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("an idle server runs %d goroutines of its own, want 0", n-base)
	}
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	var handles []*serve.Handle
	submit := func() serve.Stats {
		t.Helper()
		h, err := srv.Submit(context.Background(), serve.Job{Alg: &gateAlg{Label: "gated", Gate: gate}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		return srv.Stats()
	}

	if st := submit(); st.InFlight != 1 || st.QueueDepth != 0 || st.Devices[0].Placements != 1 {
		t.Fatalf("after the first Submit: in flight %d, queued %d, device 0 placements %d; want 1, 0, 1",
			st.InFlight, st.QueueDepth, st.Devices[0].Placements)
	}
	if st := submit(); st.InFlight != 2 || st.QueueDepth != 0 || st.Devices[1].Placements != 1 {
		t.Fatalf("after the second Submit: in flight %d, queued %d, device 1 placements %d; want 2, 0, 1",
			st.InFlight, st.QueueDepth, st.Devices[1].Placements)
	}
	if st := submit(); st.InFlight != 2 || st.QueueDepth != 1 {
		t.Fatalf("after the third Submit: in flight %d, queued %d; want 2, 1", st.InFlight, st.QueueDepth)
	}

	openGate()
	for _, h := range handles {
		if _, err := h.Report(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 || st.Completed != 3 ||
		st.Devices[0].Placements+st.Devices[1].Placements != 3 {
		t.Errorf("after release: %+v, want 3 completed, 3 placements, nothing queued or in flight", st)
	}
}
