package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/hpu"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateTuner = flag.Bool("update", false, "rewrite testdata/tuner.golden from this commit's server")

// TestGoldenTuner pins the calibration a server learns from a fixed job
// sequence: on a one-Sim server with tracing and metrics on, the four
// fixed-strategy mergesorts and Auto mergesort, scan and sum jobs at three
// sizes, twice, each submitted and waited for alone, then
// Tuner.MarshalJSON. Every fitted float is a sum of measured intervals in
// completion order, so the file reproduces bit for bit. It was generated on
// the commit before the calibrator's measurements came from the
// interpreter's tap, when a backend decorator timed them.
func TestGoldenTuner(t *testing.T) {
	srv, err := serve.New(hpu.MustSim(hpu.HPU1()),
		serve.WithRecorder(trace.NewRecorderLimit(1024)), serve.WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for i, n := range []int{1 << 8, 1 << 12, 1 << 14} {
			data := workload.Uniform(n, int64(10*round+i))
			for _, job := range fixedSortJobs(t, n) {
				checkMergesort(ctx, t, srv, data, job)
			}
			checkMergesort(ctx, t, srv, data, serve.Job{Strategy: serve.Auto})
			checkAutoScan(ctx, t, srv, data)
			checkAutoSum(ctx, t, srv, data)
		}
	}
	raw, err := srv.Tuner().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalTuner(t, raw)
	path := filepath.Join("testdata", "tuner.golden")
	if *updateTuner {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tuner state differs from %s:\n%s", path, got)
	}
}

// canonicalTuner indents the tuner's JSON with every device's buckets sorted
// by key: the tuner writes them in map order.
func canonicalTuner(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc struct {
		Version int                       `json:"version"`
		Devices map[string]map[string]any `json:"devices"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, dev := range doc.Devices {
		entries, _ := dev["entries"].([]any)
		sort.Slice(entries, func(i, j int) bool {
			ki, _ := json.Marshal(entries[i].(map[string]any)["key"])
			kj, _ := json.Marshal(entries[j].(map[string]any)["key"])
			return string(ki) < string(kj)
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
