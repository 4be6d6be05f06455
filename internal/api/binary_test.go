package api_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/dcerr"
	"repro/internal/mempool"
	"repro/internal/workload"
)

// TestBinaryFrameRoundTrip pins the frame codec: encode → decode is the
// identity for both element widths, including the empty frame.
func TestBinaryFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 1 << 10} {
		d32 := make([]int32, n)
		d64 := make([]int64, n)
		for i := 0; i < n; i++ {
			d32[i] = rng.Int31() - 1<<30
			d64[i] = rng.Int63() - 1<<62
		}
		var buf bytes.Buffer
		if err := api.WriteInt32Frame(&buf, d32); err != nil {
			t.Fatal(err)
		}
		got32, err := api.ReadInt32Frame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got32) != n {
			t.Fatalf("int32 frame n=%d decoded %d elements", n, len(got32))
		}
		for i := range got32 {
			if got32[i] != d32[i] {
				t.Fatalf("int32 frame n=%d differs at %d: %d != %d", n, i, got32[i], d32[i])
			}
		}
		buf.Reset()
		if err := api.WriteInt64Frame(&buf, d64); err != nil {
			t.Fatal(err)
		}
		got64, err := api.ReadInt64Frame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got64) != n {
			t.Fatalf("int64 frame n=%d decoded %d elements", n, len(got64))
		}
		for i := range got64 {
			if got64[i] != d64[i] {
				t.Fatalf("int64 frame n=%d differs at %d: %d != %d", n, i, got64[i], d64[i])
			}
		}
	}
}

// TestBinaryFrameSwappedBytes runs the codec's big-endian branch on this
// host: with each element's bytes reversed on the way out and back in, a
// frame round-trips, and its payload is the plain frame's with every
// element's bytes reversed.
func TestBinaryFrameSwappedBytes(t *testing.T) {
	d32, d64 := []int32{1, -2, 0x01020304}, []int64{1, -2, 0x0102030405060708}
	var plain32, plain64 bytes.Buffer
	if err := api.WriteInt32Frame(&plain32, d32); err != nil {
		t.Fatal(err)
	}
	if err := api.WriteInt64Frame(&plain64, d64); err != nil {
		t.Fatal(err)
	}
	defer api.SwapFrameBytes()()
	var sw32, sw64 bytes.Buffer
	if err := api.WriteInt32Frame(&sw32, d32); err != nil {
		t.Fatal(err)
	}
	if err := api.WriteInt64Frame(&sw64, d64); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		plain, swapped []byte
		size           int
	}{{plain32.Bytes(), sw32.Bytes(), 4}, {plain64.Bytes(), sw64.Bytes(), 8}} {
		want := append([]byte{}, f.plain...)
		for i := 16; i < len(want); i += f.size {
			slices.Reverse(want[i : i+f.size])
		}
		if !bytes.Equal(f.swapped, want) {
			t.Errorf("%d-byte frame: % x, want % x", f.size, f.swapped, want)
		}
	}
	got32, err := api.ReadInt32Frame(&sw32, 0)
	if err != nil || !slices.Equal(got32, d32) {
		t.Errorf("int32 round trip: %v, %v", got32, err)
	}
	got64, err := api.ReadInt64Frame(&sw64, 0)
	if err != nil || !slices.Equal(got64, d64) {
		t.Errorf("int64 round trip: %v, %v", got64, err)
	}
}

// TestReadInt64FrameTakesNoLease: a decoded result leaves with the caller
// and is never returned, so decoding one — an int64 frame, or the int32
// frame of a sorted result, which is what the client reads with
// ReadInt32Frame — must not take the vector a job put back for the next
// one. (The server's request path does lease its payload: that comes back
// when the job is evicted.)
func TestReadInt64FrameTakesNoLease(t *testing.T) {
	const n = 1 << 10
	retained := func(stats mempool.PoolStats) int {
		for _, c := range stats.Classes {
			if c.Elems == n {
				return c.Retained
			}
		}
		return 0
	}
	retained32 := func() int { return retained(mempool.Int32s.Stats()) }
	retained64 := func() int { return retained(mempool.Int64s.Stats()) }
	var frame32, frame64 bytes.Buffer
	if err := api.WriteInt32Frame(&frame32, make([]int32, n)); err != nil {
		t.Fatal(err)
	}
	if err := api.WriteInt64Frame(&frame64, make([]int64, n)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		retained func() int
		park     func() // put one vector of the class back
		decode   func() error
	}{
		{"int64 result", retained64, func() { mempool.Int64s.Put(mempool.Int64s.Get(n)) }, func() error {
			_, err := api.ReadInt64Frame(bytes.NewReader(frame64.Bytes()), 0)
			return err
		}},
		{"int32 result", retained32, func() { mempool.Int32s.Put(mempool.Int32s.Get(n)) }, func() error {
			_, err := api.ReadInt32Frame(bytes.NewReader(frame32.Bytes()), 0)
			return err
		}},
	} {
		tc.park()
		before := tc.retained()
		if before == 0 {
			t.Fatalf("%s: the pool did not keep the returned vector", tc.name)
		}
		if err := tc.decode(); err != nil {
			t.Fatal(err)
		}
		if after := tc.retained(); after != before {
			t.Errorf("%s: decoding %d elements left %d pooled vectors of that class, want %d", tc.name, n, after, before)
		}
	}
}

// TestBinaryFrameRejects pins the decoder's validation: bad magic, wrong
// element width, and a count past the body limit all fail cleanly.
func TestBinaryFrameRejects(t *testing.T) {
	var good bytes.Buffer
	if err := api.WriteInt32Frame(&good, []int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	frame := good.Bytes()

	bad := append([]byte{}, frame...)
	copy(bad, "NOPE")
	if _, err := api.ReadInt32Frame(bytes.NewReader(bad), 0); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := api.ReadInt64Frame(bytes.NewReader(frame), 0); err == nil {
		t.Error("int32 frame accepted as int64")
	}
	if _, err := api.ReadInt32Frame(bytes.NewReader(frame), 24); err == nil {
		t.Error("frame over the byte limit accepted")
	}
	if _, err := api.ReadInt32Frame(bytes.NewReader(frame[:10]), 0); err == nil {
		t.Error("truncated header accepted")
	}

	// A payload shorter than its header says: the server's decoder, which
	// leases the payload's vector before it reads, puts the lease back.
	const n = 1 << 10
	var long bytes.Buffer
	if err := api.WriteInt32Frame(&long, make([]int32, n)); err != nil {
		t.Fatal(err)
	}
	short := long.Bytes()[:long.Len()-1]
	if _, err := api.ReadInt32Frame(bytes.NewReader(short), 0); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("truncated payload: %v, want ErrBadParam", err)
	}
	mempool.Int32s.Put(mempool.Int32s.Get(n))
	before := retainedInt32s(n)
	if before == 0 {
		t.Fatal("the pool did not keep the returned vector")
	}
	if _, err := api.ReadLeasedInt32Frame(bytes.NewReader(short), 0); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("truncated payload, leased: %v, want ErrBadParam", err)
	}
	if after := retainedInt32s(n); after != before {
		t.Errorf("a truncated payload left %d pooled vectors of %d elements, want %d", after, n, before)
	}
}

// retainedInt32s is how many vectors mempool.Int32s keeps in the class of
// n elements.
func retainedInt32s(n int) int {
	for _, c := range mempool.Int32s.Stats().Classes {
		if c.Elems == n {
			return c.Retained
		}
	}
	return 0
}

// TestQueryParamsRoundTrip pins the query-parameter encoding of a binary
// submission against its server-side decoder.
func TestQueryParamsRoundTrip(t *testing.T) {
	req := api.JobRequest{
		Algorithm: "mergesort",
		Strategy:  "advanced-hybrid",
		Alpha:     0.5,
		Y:         3,
		Priority:  2,
		Coalesce:  true,
		Reliability: &api.Reliability{
			MaxRetries: 2,
			BackoffMS:  5,
			DeadlineMS: 1000,
			Fallback:   "cpu-only",
		},
	}
	got, err := api.RequestFromQuery(req.QueryParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != req.Algorithm || got.Strategy != req.Strategy ||
		got.Alpha != req.Alpha || got.Y != req.Y || got.Crossover != req.Crossover ||
		got.Priority != req.Priority || got.Coalesce != req.Coalesce {
		t.Errorf("round trip mangled request: %+v != %+v", got, req)
	}
	if got.Reliability == nil || *got.Reliability != *req.Reliability {
		t.Errorf("round trip mangled reliability: %+v != %+v", got.Reliability, req.Reliability)
	}
}

// TestBinaryRoundTripBitExact runs each algorithm through both wire formats
// against one server and requires bit-identical results.
func TestBinaryRoundTripBitExact(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	bin := client.New(h.base, client.WithBinary())
	data := workload.Uniform(1<<10, 23)

	for _, kind := range []string{"mergesort", "scan", "sum"} {
		req := api.JobRequest{Algorithm: kind, Data: data, Strategy: "gpu-only"}

		jh, err := h.cli.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%s: JSON submit: %v", kind, err)
		}
		jres, err := jh.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: JSON wait: %v", kind, err)
		}

		bh, err := bin.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%s: binary submit: %v", kind, err)
		}
		bres, err := bh.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: binary wait: %v", kind, err)
		}

		switch kind {
		case "mergesort":
			if len(bres.Sorted) != len(jres.Sorted) {
				t.Fatalf("mergesort: binary %d elements, JSON %d", len(bres.Sorted), len(jres.Sorted))
			}
			for i := range bres.Sorted {
				if bres.Sorted[i] != jres.Sorted[i] {
					t.Fatalf("mergesort differs at %d: %d != %d", i, bres.Sorted[i], jres.Sorted[i])
				}
			}
		case "scan":
			if len(bres.Scan) != len(jres.Scan) {
				t.Fatalf("scan: binary %d elements, JSON %d", len(bres.Scan), len(jres.Scan))
			}
			for i := range bres.Scan {
				if bres.Scan[i] != jres.Scan[i] {
					t.Fatalf("scan differs at %d: %d != %d", i, bres.Scan[i], jres.Scan[i])
				}
			}
		case "sum":
			if bres.Sum == nil || jres.Sum == nil || *bres.Sum != *jres.Sum {
				t.Fatalf("sum differs: binary %v, JSON %v", bres.Sum, jres.Sum)
			}
		}
		if bres.Report.Algorithm != jres.Report.Algorithm {
			t.Errorf("%s: report algorithm differs: %q != %q", kind, bres.Report.Algorithm, jres.Report.Algorithm)
		}
	}
}

// TestBinaryResultNegotiation pins the Accept negotiation: without a binary
// Accept the result stays JSON; with one the body is a raw frame and the
// report rides in the X-Hpu-Report header.
func TestBinaryResultNegotiation(t *testing.T) {
	h := newHarness(t, nil)
	ctx := context.Background()
	jh, err := h.cli.Submit(ctx, api.JobRequest{
		Algorithm: "mergesort", Data: workload.Uniform(1<<8, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jh.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	get := func(accept string) *http.Response {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			h.base+"/v1/jobs/1/result", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(""); resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("default Accept returned %q, want JSON", resp.Header.Get("Content-Type"))
	}
	resp := get(api.ContentTypeInt32)
	if ct := resp.Header.Get("Content-Type"); ct != api.ContentTypeInt32 {
		t.Fatalf("binary Accept returned %q", ct)
	}
	if resp.Header.Get(api.ReportHeader) == "" {
		t.Error("binary result missing " + api.ReportHeader)
	}
	if sorted, err := api.ReadInt32Frame(resp.Body, 0); err != nil {
		t.Errorf("binary result body: %v", err)
	} else if len(sorted) != 1<<8 {
		t.Errorf("binary result has %d elements, want %d", len(sorted), 1<<8)
	}
}
