package native

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// waitCounter polls a snapshot counter until it becomes nonzero or the
// deadline passes (engine counters are flushed on busy→idle transitions, so
// they are eventually consistent).
func waitCounter(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := reg.Snapshot().Counters[name]; got > 0 || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStealRebalancesSkewedBatch pins the engine's reason to exist: when one
// index range is far more expensive than the rest (≈90% of the work in the
// first quarter of the range), idle workers must steal split-off spans from
// the loaded worker, and the result must be identical to a sequential run.
// The suite's -race runs make this double as the stealing stress test.
func TestStealRebalancesSkewedBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newBackend(t, Config{CPUWorkers: 4, Metrics: reg})

	const tasks = 4096
	heavy := tasks / 4 // the first worker's initial span holds ~90% of the cost
	out := make([]uint64, tasks)
	work := func(i, rounds int) uint64 {
		v := uint64(i) + 1
		for r := 0; r < rounds; r++ {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
		}
		return v
	}
	// Heavy tasks must be slow enough that the loaded worker is still mid-
	// span when its peers go hungry, or the batch completes before any
	// split is exposed.
	rounds := func(i int) int {
		if i < heavy {
			return 50000
		}
		return 1000
	}

	// Once with each form of the body: a stolen half of a range body's span
	// must run its own indices, once.
	ran := make([]int32, tasks)
	task := func(i int) {
		out[i] = work(i, rounds(i))
		ran[i]++
	}
	for _, batch := range []core.Batch{
		{Tasks: tasks, Run: task},
		{Tasks: tasks, RunRange: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				task(i)
			}
		}},
	} {
		var done sync.WaitGroup
		done.Add(1)
		b.CPU().Submit(batch, done.Done)
		done.Wait()
	}
	b.Wait()

	for i := range out {
		if want := work(i, rounds(i)); out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
		if ran[i] != 2 {
			t.Fatalf("task %d ran %d times over the two batches, want once in each", i, ran[i])
		}
	}
	if got := waitCounter(t, reg, PoolCPU+MetricSteals); got == 0 {
		t.Errorf("%s%s = 0 under skewed load, want > 0", PoolCPU, MetricSteals)
	}
}

// TestSaturatedSubmitNoGoroutineGrowth pins the fix for the old pool's
// full-channel fallback, which spawned one goroutine per overflowing chunk:
// with every worker blocked, submitting 10k more chunks must not grow the
// goroutine count — the spans queue in the injector instead.
func TestSaturatedSubmitNoGoroutineGrowth(t *testing.T) {
	b := newBackend(t, Config{CPUWorkers: 2})

	release := make(chan struct{})
	var blocked, done sync.WaitGroup
	blocked.Add(2)
	done.Add(1)
	// Saturate: one task per worker, each parked until released.
	b.CPU().Submit(core.Batch{Tasks: 2, Run: func(int) {
		blocked.Done()
		<-release
	}}, done.Done)
	blocked.Wait()

	before := runtime.NumGoroutine()
	const chunks = 10000
	var drained sync.WaitGroup
	drained.Add(chunks)
	for i := 0; i < chunks; i++ {
		b.CPU().Submit(core.Batch{Tasks: 1, Run: func(int) {}}, drained.Done)
	}
	after := runtime.NumGoroutine()
	if growth := after - before; growth > 4 {
		t.Errorf("goroutines grew by %d while submitting %d chunks to a saturated pool, want ~0", growth, chunks)
	}

	close(release)
	done.Wait()
	drained.Wait()
	b.Wait()
}

// TestSubmitZeroAlloc pins the hot-path cost contract: with a nil metrics
// registry, Submit performs no allocation — job and span descriptors are
// pooled and counter updates are no-ops.
func TestSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so allocation counts are not meaningful")
	}
	b := newBackend(t, Config{CPUWorkers: 2})

	fin := make(chan struct{})
	done := func() { fin <- struct{}{} }
	for _, batch := range []core.Batch{
		{Tasks: 64, Run: func(int) {}},
		{Tasks: 64, RunRange: func(int, int) {}},
	} {
		// Warm the descriptor pools and the injector ring.
		for i := 0; i < 16; i++ {
			b.CPU().Submit(batch, done)
			<-fin
		}
		allocs := testing.AllocsPerRun(100, func() {
			b.CPU().Submit(batch, done)
			<-fin
		})
		if allocs > 0 {
			t.Errorf("Submit allocated %.1f times per run with nil registry (range body: %v), want 0",
				allocs, batch.RunRange != nil)
		}
	}
	b.Wait()
}

// TestEngineManySmallBatches exercises chained single-task submissions (the
// shape sequential executor steps take) and concurrent submitters.
func TestEngineManySmallBatches(t *testing.T) {
	b := newBackend(t, Config{CPUWorkers: 4})

	const submitters = 8
	const perSubmitter = 500
	var total sync.WaitGroup
	total.Add(submitters)
	sums := make([]int, submitters)
	for s := 0; s < submitters; s++ {
		go func(s int) {
			defer total.Done()
			for i := 0; i < perSubmitter; i++ {
				var done sync.WaitGroup
				done.Add(1)
				b.CPU().Submit(core.Batch{Tasks: 1, Run: func(int) { sums[s]++ }}, done.Done)
				done.Wait()
			}
		}(s)
	}
	total.Wait()
	b.Wait()
	for s, got := range sums {
		if got != perSubmitter {
			t.Errorf("submitter %d ran %d tasks, want %d", s, got, perSubmitter)
		}
	}
}
