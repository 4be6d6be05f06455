package native

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// benchSubmit measures one Submit+completion round trip of a small batch
// through the backend's CPU executor. The reported allocs/op is the
// satellite contract: the engine's nil-registry path must be 0 allocs/op
// (descriptors are pooled, disabled instruments are nil no-ops), and the
// metrics path must not add per-task cost (counters are batched once per
// Submit, per-worker tallies flushed on idle transitions).
func benchSubmit(b *testing.B, cfg Config) {
	be, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()

	fin := make(chan struct{})
	done := func() { fin <- struct{}{} }
	batch := core.Batch{Tasks: 64, Run: func(int) {}}
	// Warm the descriptor pools and the injector ring.
	for i := 0; i < 16; i++ {
		be.CPU().Submit(batch, done)
		<-fin
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.CPU().Submit(batch, done)
		<-fin
	}
	b.StopTimer()
	be.Wait()
}

// BenchmarkSubmit is the engine's no-observability baseline: 0 allocs/op.
func BenchmarkSubmit(b *testing.B) {
	benchSubmit(b, Config{CPUWorkers: 2})
}

// BenchmarkSubmitMetrics is Submit with a live registry; compare with
// BenchmarkSubmit to see the cost of enabling metrics.
func BenchmarkSubmitMetrics(b *testing.B) {
	benchSubmit(b, Config{CPUWorkers: 2, Metrics: metrics.NewRegistry()})
}
