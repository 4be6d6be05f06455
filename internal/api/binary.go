package api

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/dcerr"
	"repro/internal/mempool"
)

// Binary payload path: application/x-hpu-int32le (and the int64 variant)
// carries raw little-endian element frames instead of JSON arrays, cutting
// both wire bytes (no digits, commas or base64) and codec allocations (no
// per-element token parsing). A frame is:
//
//	offset 0  magic "HPU1" (4 bytes)
//	offset 4  element size in bytes (4 or 8)
//	offset 5  reserved, zero (3 bytes)
//	offset 8  element count, uint64 little-endian
//	offset 16 payload: count × elemSize bytes, little-endian
//
// On submit the frame is the POST body and the non-payload JobRequest
// fields travel as query parameters (JobRequest.QueryParams /
// RequestFromQuery are the two symmetric halves). On result reads the
// frame is negotiated via Accept — JSON stays the default — and the
// execution Report rides in the ReportHeader as one JSON object.
const (
	// ContentTypeInt32 is the media type of an int32 little-endian frame
	// (mergesort data and results).
	ContentTypeInt32 = "application/x-hpu-int32le"
	// ContentTypeInt64 is the media type of an int64 little-endian frame
	// (scan results; a sum result is a one-element frame).
	ContentTypeInt64 = "application/x-hpu-int64le"
	// ReportHeader carries the JSON-encoded Report on binary result reads,
	// where the body is the bare payload frame.
	ReportHeader = "X-Hpu-Report"
)

const (
	frameMagic      = "HPU1"
	frameHeaderSize = 16
)

// bufPool recycles scratch buffers: JSON submissions and results, SSE
// event encoding and /metrics scrapes draw from it (the client has its own).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf leases a reset scratch buffer.
func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// putBuf returns a scratch buffer, dropping outliers so one huge response
// does not pin its allocation forever.
func putBuf(b *bytes.Buffer) {
	if b.Cap() > 1<<22 {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// readFrameHeader validates the magic and element size and returns the
// element count. maxBytes (when positive) bounds the whole frame, mirroring
// the server's request-body cap.
func readFrameHeader(r io.Reader, elemSize byte, maxBytes int64) (int, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// A short header is a malformed request, not an I/O environment
		// problem: classify it ErrBadParam so the API answers 400, and keep
		// the io error in the chain for transports that care.
		return 0, fmt.Errorf("api: binary frame header: %w: %w", err, dcerr.ErrBadParam)
	}
	if string(hdr[:4]) != frameMagic {
		return 0, fmt.Errorf("api: bad frame magic %q: %w", hdr[:4], dcerr.ErrBadParam)
	}
	if hdr[4] != elemSize {
		return 0, fmt.Errorf("api: frame element size %d, want %d: %w", hdr[4], elemSize, dcerr.ErrBadParam)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if maxBytes > 0 && count > uint64(maxBytes-frameHeaderSize)/uint64(elemSize) {
		return 0, fmt.Errorf("api: frame of %d elements over %d-byte limit: %w",
			count, maxBytes, dcerr.ErrBadParam)
	}
	const sanity = 1 << 31 // frames beyond 2Gi elements are corrupt counts
	if count > sanity {
		return 0, fmt.Errorf("api: implausible frame count %d: %w", count, dcerr.ErrBadParam)
	}
	return int(count), nil
}

// WriteInt32Frame writes data as one int32 little-endian frame.
func WriteInt32Frame(w io.Writer, data []int32) error { return writeFrame(w, data) }

// WriteInt64Frame writes data as one int64 little-endian frame.
func WriteInt64Frame(w io.Writer, data []int64) error { return writeFrame(w, data) }

// ReadInt32Frame decodes one int32 frame for a caller that keeps it: a
// sorted result leaves with the API's caller for good, so the slice is
// allocated, like ReadInt64Frame's. (The server's request path leases its
// payload from mempool.Int32s: the job owns it until it is evicted.)
func ReadInt32Frame(r io.Reader, maxBytes int64) ([]int32, error) {
	return readFrame[int32](r, maxBytes, nil)
}

// ReadInt64Frame decodes one int64 frame. Int64 frames carry results, which
// go to the API's caller for good: the slice is allocated, not leased. A
// lease that never comes back takes a vector from the jobs that do return
// theirs (EXPERIMENTS.md, PR 23).
func ReadInt64Frame(r io.Reader, maxBytes int64) ([]int64, error) {
	return readFrame[int64](r, maxBytes, nil)
}

// A frame's payload is written from, and read into, the slice's own memory.
// On a big-endian host the bytes of each element are reversed: through a
// copy on the way out, in place on the way in.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// payload is the memory of data as bytes, and the size of one element.
func payload[T int32 | int64](data []T) ([]byte, int) {
	size := int(unsafe.Sizeof(T(0)))
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), size*len(data)), size
}

// swapElems reverses the bytes of each size-byte element of b.
func swapElems(b []byte, size int) {
	for i := 0; i < len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

func writeFrame[T int32 | int64](w io.Writer, data []T) error {
	b, size := payload(data)
	hdr := [frameHeaderSize]byte{4: byte(size)}
	copy(hdr[:], frameMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if bigEndian {
		b = slices.Clone(b)
		swapElems(b, size)
	}
	_, err := w.Write(b)
	return err
}

// readFrame decodes one frame into a slice leased from pool, or allocated
// when pool is nil. A payload shorter than its header says puts the lease
// back.
func readFrame[T int32 | int64](r io.Reader, maxBytes int64, pool *mempool.Pool[T]) ([]T, error) {
	n, err := readFrameHeader(r, byte(unsafe.Sizeof(T(0))), maxBytes)
	if err != nil {
		return nil, err
	}
	var out []T
	if pool != nil {
		out = pool.Get(n)
	} else {
		out = make([]T, n)
	}
	b, size := payload(out)
	if _, err := io.ReadFull(r, b); err != nil {
		if pool != nil {
			pool.Put(out)
		}
		// Fewer payload bytes than the header promised: malformed frame.
		return nil, fmt.Errorf("api: binary frame payload: %w: %w", err, dcerr.ErrBadParam)
	}
	if bigEndian {
		swapElems(b, size)
	}
	return out, nil
}

// QueryParams renders the request's non-payload fields as the query string
// of a binary submission. RequestFromQuery is the inverse.
func (r JobRequest) QueryParams() url.Values {
	q := url.Values{}
	q.Set("algorithm", r.Algorithm)
	if r.Strategy != "" {
		q.Set("strategy", r.Strategy)
	}
	if r.Alpha != 0 {
		q.Set("alpha", strconv.FormatFloat(r.Alpha, 'g', -1, 64))
	}
	if r.Y != 0 {
		q.Set("y", strconv.Itoa(r.Y))
	}
	if r.Crossover != 0 {
		q.Set("crossover", strconv.Itoa(r.Crossover))
	}
	if r.Priority != 0 {
		q.Set("priority", strconv.Itoa(r.Priority))
	}
	if r.Coalesce {
		q.Set("coalesce", "1")
	}
	if rel := r.Reliability; rel != nil {
		if rel.MaxRetries != 0 {
			q.Set("max_retries", strconv.Itoa(rel.MaxRetries))
		}
		if rel.BackoffMS != 0 {
			q.Set("backoff_ms", strconv.FormatInt(rel.BackoffMS, 10))
		}
		if rel.DeadlineMS != 0 {
			q.Set("deadline_ms", strconv.FormatInt(rel.DeadlineMS, 10))
		}
		if rel.HedgeMS != 0 {
			q.Set("hedge_ms", strconv.FormatInt(rel.HedgeMS, 10))
		}
		if rel.Fallback != "" {
			q.Set("fallback", rel.Fallback)
		}
	}
	return q
}

// RequestFromQuery rebuilds a JobRequest (minus Data) from a binary
// submission's query parameters.
func RequestFromQuery(q url.Values) (JobRequest, error) {
	req := JobRequest{
		Algorithm: q.Get("algorithm"),
		Strategy:  q.Get("strategy"),
		Coalesce:  q.Get("coalesce") == "1" || strings.EqualFold(q.Get("coalesce"), "true"),
	}
	if v := q.Get("alpha"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("api: bad query alpha=%q: %w", v, dcerr.ErrBadParam)
		}
		req.Alpha = f
	}
	if err := queryInt(q, "y", &req.Y); err != nil {
		return req, err
	}
	if err := queryInt(q, "crossover", &req.Crossover); err != nil {
		return req, err
	}
	if err := queryInt(q, "priority", &req.Priority); err != nil {
		return req, err
	}
	rel := Reliability{Fallback: q.Get("fallback")}
	if err := queryInt(q, "max_retries", &rel.MaxRetries); err != nil {
		return req, err
	}
	if err := queryInt(q, "backoff_ms", &rel.BackoffMS); err != nil {
		return req, err
	}
	if err := queryInt(q, "deadline_ms", &rel.DeadlineMS); err != nil {
		return req, err
	}
	if err := queryInt(q, "hedge_ms", &rel.HedgeMS); err != nil {
		return req, err
	}
	if rel != (Reliability{}) {
		req.Reliability = &rel
	}
	return req, nil
}

// queryInt parses the query parameter key into dst when it is present.
func queryInt[T int | int64](q url.Values, key string, dst *T) error {
	v := q.Get(key)
	if v == "" {
		return nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || int64(T(n)) != n {
		return fmt.Errorf("api: bad query %s=%q: %w", key, v, dcerr.ErrBadParam)
	}
	*dst = T(n)
	return nil
}

// acceptsType reports whether the Accept header lists the content type.
// The media types are distinctive enough that substring matching is exact.
func acceptsType(accept, contentType string) bool {
	return strings.Contains(accept, contentType)
}
