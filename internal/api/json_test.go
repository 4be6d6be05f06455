package api

// The hand-written codec against encoding/json. FuzzJobRequestJSON and
// FuzzJobResultJSON hold it to encoding/json for any input: UnmarshalJSON
// agrees with json.Unmarshal on the method-less type, on error and on value,
// and AppendJSON re-encodes a decoded value to json.Marshal's bytes. The seeds cover
// what the hand path must hand over (escapes, non-ASCII, case-variant,
// unknown and duplicate keys, null, non-integer and out-of-range numbers,
// trailing data) and what it takes itself.
//
// `go test -run '^Fuzz' ./internal/api/` replays the seeds (make fuzz-smoke);
// `go test -run '^$' -fuzz '^FuzzJobRequestJSON$' -fuzztime 30s ./internal/api/`
// explores from them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/workload"
)

// refRequest and refResult decode with encoding/json alone, under the names
// its errors carry.
func refRequest(b []byte) (v JobRequest, err error) {
	type JobRequest jobRequestJSON
	err = json.Unmarshal(b, (*JobRequest)(&v))
	return v, err
}

func refResult(b []byte) (v JobResult, err error) {
	type JobResult jobResultJSON
	err = json.Unmarshal(b, (*JobResult)(&v))
	return v, err
}

var requestSeeds = []string{
	`{"algorithm":"mergesort","data":[3,1,2,0],"strategy":"auto"}`,
	`{"algorithm":"scan","data":[-2147483648,2147483647,0,-0],"strategy":"advanced-hybrid","alpha":0.75,"y":3,"crossover":2,"priority":4,"coalesce":true,"reliability":{"max_retries":2,"backoff_ms":5,"deadline_ms":1000,"hedge_ms":9,"fallback":"cpu-only"}}`,
	` { "algorithm" : "sum" , "data" : [ 1 , 2 ,3 ] , "coalesce" : false } ` + "\n",
	`{"reliability":{}}`,
	`{"reliability":{"hedge_ms":1},"reliability":{"fallback":"x"}}`,
	`{}`,
	`{"data":[]}`,
	`{"data":[ ]}`,
	// Escaped and non-ASCII strings.
	`{"algorithm":"mergesort","data":[1]}`,
	`{"algorithm":"a\"b","data":[1]}`,
	`{"algorithm":"<&>","data":[1]}`,
	`{"algorithm":"mérgesort","data":[1]}`,
	"{\"algorithm\":\"\xff\",\"data\":[1]}",
	"{\"algorithm\":\"\x7f\"}",
	"{\"algorithm\":\"\t\"}",
	`{"strategy":" "}`,
	// Case-variant, unknown and duplicate keys.
	`{"Algorithm":"scan","DATA":[1,2]}`,
	`{"algorithm":"scan","data":[1],"extra":{"a":[1,2]}}`,
	`{"data":[1,2],"data":[3]}`,
	`{"algorithm":"scan","algorithm":"sum"}`,
	`{"algorithm":"scan"}`,
	// null.
	`null`,
	`{"data":null}`,
	`{"algorithm":null}`,
	`{"reliability":null}`,
	`{"alpha":null}`,
	// Integers written as floats, and values outside int32 and int64.
	`{"y":1.0}`,
	`{"y":1e3}`,
	`{"data":[1.0]}`,
	`{"data":[1e3]}`,
	`{"data":[2147483648]}`,
	`{"data":[-2147483649]}`,
	`{"data":[99999999999999999999]}`,
	`{"y":9223372036854775807}`,
	`{"y":9223372036854775808}`,
	`{"reliability":{"backoff_ms":-9223372036854775809}}`,
	// Floats: out of range, NaN (not JSON), the exponent forms and -0.
	`{"alpha":1e400}`,
	`{"alpha":NaN}`,
	`{"alpha":-0}`,
	`{"alpha":1e-7}`,
	`{"alpha":1.5E+21}`,
	`{"alpha":0.000001}`,
	`{"alpha":1.}`,
	`{"alpha":.5}`,
	`{"alpha":1e}`,
	// Malformed numbers and arrays.
	`{"data":[01]}`,
	`{"data":[-]}`,
	`{"data":[1,]}`,
	`{"data":[,1]}`,
	`{"data":[1 2]}`,
	`{"data":[1,"2]"]}`,
	`{"data":[1`,
	`{"data":"1"}`,
	`{"data":[1,2],"y":"x"}`,
	`{"coalesce":tru}`,
	`{"coalesce":1}`,
	// Trailing data.
	`{"algorithm":"sum","data":[1]} {"x":1}`,
	`{"data":[1]}x`,
	`{"data":[1]}]`,
	``,
	`[]`,
}

var resultSeeds = []string{
	`{"id":7,"report":{"algorithm":"mergesort","strategy":"bf-cpu","seconds":0.00012},"sorted":[1,2,3]}`,
	`{"id":18446744073709551615,"report":{"algorithm":"scan","strategy":"auto","chosen_strategy":"bf-cpu","seconds":1e-9,"cpu_portion_seconds":2.5,"gpu_portion_seconds":1e21,"partial":true},"scan":[-9223372036854775808,9223372036854775807]}`,
	`{"id":1,"report":{"algorithm":"dcsum","strategy":"seq-1cpu","seconds":-0},"sum":42}`,
	`{"id":1,"report":{},"sorted":[],"scan":[]}`,
	`{"report":{"seconds":0,"partial":false}}`,
	`{"id":-1}`,
	`{"id":-0}`,
	`{"id":18446744073709551616}`,
	`{"id":1.5}`,
	`{"sum":null}`,
	`{"sum":1.5}`,
	`{"sum":9223372036854775808}`,
	`{"scan":[9223372036854775808]}`,
	`{"scan":[-9223372036854775809]}`,
	`{"sorted":[2147483648]}`,
	`{"report":null}`,
	`{"Report":{"Algorithm":"x"}}`,
	`{"report":{"seconds":1e400}}`,
	`{"report":{"algorithm":"é"}}`,
	`{"report":{"strategy":"a","strategy":"b"}}`,
	`{"sorted":[1],"sorted":[2]}`,
	`{"id":1}` + "\n",
	`{"id":1} 2`,
}

// checkEncode requires AppendJSON of v, after a prefix, to give json.Marshal's
// bytes (and its failure on a NaN or infinite float).
func checkEncode(t *testing.T, v any) {
	t.Helper()
	var app func([]byte) ([]byte, error)
	switch v := v.(type) {
	case JobRequest:
		app = v.AppendJSON
	case JobResult:
		app = v.AppendJSON
	}
	want, wantErr := json.Marshal(v)
	prefix := []byte("prefix")
	got, err := app(prefix)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON = %s (err %v), json.Marshal %s (err %v)", got, err, want, wantErr)
	}
}

func FuzzJobRequestJSON(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := refRequest(b)
		var got JobRequest
		err := got.UnmarshalJSON(b)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("UnmarshalJSON(%q) = %+v, %v; encoding/json %+v, %v", b, got, err, want, wantErr)
		}
		pooled, err := decodeJobRequest(b)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(pooled, want) {
			t.Fatalf("decodeJobRequest(%q) = %+v, %v; encoding/json %+v, %v", b, pooled, err, want, wantErr)
		}
		if err == nil {
			checkEncode(t, got)
		}
	})
}

func FuzzJobResultJSON(f *testing.F) {
	for _, s := range resultSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := refResult(b)
		var got JobResult
		err := got.UnmarshalJSON(b)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("UnmarshalJSON(%q) = %+v, %v; encoding/json %+v, %v", b, got, err, want, wantErr)
		}
		if err == nil {
			checkEncode(t, got)
		}
	})
}

// TestJSONEncodeMatchesEncodingJSON covers the values no decoded input
// produces: NaN and infinite floats, strings encoding/json escapes, nil
// against empty arrays, and the float format's edges.
func TestJSONEncodeMatchesEncodingJSON(t *testing.T) {
	sum := int64(-7)
	for _, v := range []any{
		JobRequest{},
		JobRequest{Data: []int32{}},
		JobRequest{Algorithm: "<script>&", Strategy: " \x00\xff", Data: []int32{math.MinInt32, math.MaxInt32}},
		JobRequest{Alpha: math.NaN()},
		JobRequest{Alpha: math.Inf(-1)},
		JobRequest{Alpha: math.Copysign(0, -1), Reliability: &Reliability{}},
		JobRequest{Alpha: 1e-7, Reliability: &Reliability{Fallback: "cpu-only"}},
		JobRequest{Alpha: 123456789e15, Reliability: &Reliability{HedgeMS: -1}},
		JobRequest{Alpha: 1e21, Y: -1, Crossover: math.MaxInt, Priority: math.MinInt},
		JobResult{},
		JobResult{ID: math.MaxUint64, Sorted: []int32{}, Scan: []int64{}, Sum: &sum},
		JobResult{Report: Report{Seconds: math.NaN()}},
		JobResult{Report: Report{CPUPortionSeconds: math.Inf(1)}},
		JobResult{Report: Report{Seconds: math.Copysign(0, -1), GPUPortionSeconds: 5e-324, Partial: true}},
		JobResult{Report: Report{Seconds: math.MaxFloat64, ChosenStrategy: "é"}, Scan: []int64{math.MinInt64, math.MaxInt64}},
	} {
		checkEncode(t, v)
	}
}

// TestJSONAllocs pins the codec's allocations: encoding into a buffer with
// room makes none, and decoding a 4096-element request makes its array and
// its two strings.
func TestJSONAllocs(t *testing.T) {
	data := workload.Uniform(1<<12, 1)
	req := JobRequest{Algorithm: "mergesort", Data: data, Strategy: "auto", Alpha: 0.5, Reliability: &Reliability{MaxRetries: 1}}
	sum := int64(3)
	res := JobResult{ID: 9, Report: Report{Algorithm: "mergesort", Strategy: "bf-cpu", Seconds: 0.001}, Sorted: data, Sum: &sum}
	buf := make([]byte, 0, 1<<20)
	for name, enc := range map[string]func([]byte) ([]byte, error){"JobRequest": req.AppendJSON, "JobResult": res.AppendJSON} {
		if n := testing.AllocsPerRun(20, func() { enc(buf) }); n != 0 {
			t.Errorf("%s.AppendJSON into a buffer with room: %v allocations, want 0", name, n)
		}
	}
	body, err := JobRequest{Algorithm: "mergesort", Data: data, Strategy: "auto"}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		var r JobRequest
		if err := r.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("UnmarshalJSON of a %d-element request: %v allocations, want at most 3", len(data), n)
	}
}

// benchCodec runs encode and decode of v, hand-written and through
// encoding/json on the method-less type, reporting ns per array element.
func benchCodec(b *testing.B, n int, encode func([]byte) ([]byte, error), plain any, decode, decodePlain func([]byte) error) {
	raw, err := json.Marshal(plain)
	if err != nil {
		b.Fatal(err)
	}
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
	}
	buf := make([]byte, 0, 2*len(raw))
	b.Run("encode/hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = encode(buf[:0])
		}
		perElem(b)
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal(plain)
		}
		perElem(b)
	})
	b.Run("decode/hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decode(raw)
		}
		perElem(b)
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decodePlain(raw)
		}
		perElem(b)
	})
}

// BenchmarkJobRequestJSON: a submission at the small-job sizes, against
// encoding/json as the baseline row.
func BenchmarkJobRequestJSON(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		req := JobRequest{Algorithm: "mergesort", Data: workload.Uniform(n, 1), Strategy: "auto"}
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			benchCodec(b, n, req.AppendJSON, jobRequestJSON(req),
				func(raw []byte) error { var r JobRequest; return r.UnmarshalJSON(raw) },
				func(raw []byte) error { var r jobRequestJSON; return json.Unmarshal(raw, &r) })
		})
	}
}

// BenchmarkJobResultJSON: a sorted result at the small-job sizes.
func BenchmarkJobResultJSON(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		res := JobResult{ID: 1, Report: Report{Algorithm: "mergesort", Strategy: "bf-cpu", Seconds: 0.000123}, Sorted: workload.Uniform(n, 2)}
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			benchCodec(b, n, res.AppendJSON, jobResultJSON(res),
				func(raw []byte) error { var r JobResult; return r.UnmarshalJSON(raw) },
				func(raw []byte) error { var r jobResultJSON; return json.Unmarshal(raw, &r) })
		})
	}
}
