package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeFloat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("jobs_total") != c {
		t.Error("same name returned a different counter")
	}

	g := r.Gauge("queue_depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
	g.Max(10)
	g.Max(7)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge after Max = %d, want 10", got)
	}

	f := r.Float("busy_seconds")
	f.Add(0.25)
	f.Add(0.5)
	if got := f.Value(); got != 0.75 {
		t.Errorf("float = %g, want 0.75", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["latency"]
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 556.5 {
		t.Errorf("sum = %g, want 556.5", s.Sum)
	}
	// v <= bound buckets: {0.5, 1} <= 1, {5} <= 10, {50} <= 100, {500} overflow.
	want := []uint64{2, 1, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	// Second lookup ignores differing bounds.
	if got := r.Histogram("latency", 7); got.Count() != 5 {
		t.Error("re-creating a histogram lost observations")
	}
}

// TestNilRegistryNoops pins the disabled path: every instrument obtained
// from a nil registry must be callable and free of effects.
func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-1)
	r.Gauge("g").Max(9)
	r.Float("f").Add(1.5)
	r.Histogram("h").Observe(0.1)
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter = %d", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge = %d", v)
	}
	if v := r.Float("f").Value(); v != 0 {
		t.Errorf("nil float = %g", v)
	}
	if n := r.Histogram("h").Count(); n != 0 {
		t.Errorf("nil histogram count = %d", n)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Floats)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestDisabledPathAllocs pins constraint 1 of the package doc: with metrics
// disabled (nil instruments), observing costs zero allocations.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	c, g, f, h := r.Counter("c"), r.Gauge("g"), r.Float("f"), r.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		f.Add(0.5)
		h.Observe(0.1)
	})
	if allocs != 0 {
		t.Errorf("disabled metrics path allocates %g allocs/op, want 0", allocs)
	}
}

// TestEnabledPathAllocs pins the hot path: observing on pre-created
// instruments allocates nothing either — only instrument creation does.
func TestEnabledPathAllocs(t *testing.T) {
	r := NewRegistry()
	c, g, f, h := r.Counter("c"), r.Gauge("g"), r.Float("f"), r.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		f.Add(0.5)
		h.Observe(0.1)
	})
	if allocs != 0 {
		t.Errorf("enabled metrics hot path allocates %g allocs/op, want 0", allocs)
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops")
			f := r.Float("sum")
			h := r.Histogram("lat", 0.5)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				f.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("ops").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Float("sum").Value(); math.Abs(got-total) > 1e-9 {
		t.Errorf("float = %g, want %d", got, total)
	}
	if got := r.Histogram("lat").Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total").Add(2)
	r.Gauge("queue_depth").Set(1)
	r.Histogram("wait_seconds", 0.1, 1).Observe(0.05)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["jobs_total"] != 2 {
		t.Errorf("round-tripped counter = %d, want 2", s.Counters["jobs_total"])
	}
	if s.Gauges["queue_depth"] != 1 {
		t.Errorf("round-tripped gauge = %d, want 1", s.Gauges["queue_depth"])
	}
	h := s.Histograms["wait_seconds"]
	if h.Count != 1 || h.Counts[0] != 1 {
		t.Errorf("round-tripped histogram = %+v", h)
	}
	if !strings.Contains(buf.String(), "wait_seconds") {
		t.Error("JSON missing histogram name")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

func BenchmarkDisabledObserve(b *testing.B) {
	var r *Registry
	c, h := r.Counter("c"), r.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(0.001)
	}
}
