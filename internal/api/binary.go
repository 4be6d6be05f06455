package api

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"

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

// bufPool recycles scratch buffers across responses: SSE event encoding,
// /metrics scrapes, and client-side frame assembly all draw from it.
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

// frameHeader assembles the 16-byte header.
func frameHeader(elemSize byte, count int) [frameHeaderSize]byte {
	var hdr [frameHeaderSize]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = elemSize
	binary.LittleEndian.PutUint64(hdr[8:], uint64(count))
	return hdr
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

// WriteInt32Frame writes data as one int32 little-endian frame. The
// element conversion stages through a pooled buffer, so steady-state
// encoding allocates nothing.
func WriteInt32Frame(w io.Writer, data []int32) error {
	hdr := frameHeader(4, len(data))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := mempool.Bytes.Get(4 * len(data))
	defer mempool.Bytes.Put(buf)
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	_, err := w.Write(buf)
	return err
}

// WriteInt64Frame writes data as one int64 little-endian frame.
func WriteInt64Frame(w io.Writer, data []int64) error {
	hdr := frameHeader(8, len(data))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := mempool.Bytes.Get(8 * len(data))
	defer mempool.Bytes.Put(buf)
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	_, err := w.Write(buf)
	return err
}

// ReadInt32Frame decodes one int32 frame for a caller that keeps it: a
// sorted result leaves with the API's caller for good, so the slice is
// allocated, like ReadInt64Frame's.
func ReadInt32Frame(r io.Reader, maxBytes int64) ([]int32, error) {
	return readInt32Frame(r, maxBytes, func(n int) []int32 { return make([]int32, n) })
}

// readInt32Frame decodes one int32 frame into the slice dst hands it: the
// server's request path passes mempool.Int32s.Get — the job owns the payload
// and the server puts it back when the job is evicted.
func readInt32Frame(r io.Reader, maxBytes int64, dst func(n int) []int32) ([]int32, error) {
	n, err := readFrameHeader(r, 4, maxBytes)
	if err != nil {
		return nil, err
	}
	buf := mempool.Bytes.Get(4 * n)
	defer mempool.Bytes.Put(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		// Fewer payload bytes than the header promised: malformed frame.
		return nil, fmt.Errorf("api: binary frame payload: %w: %w", err, dcerr.ErrBadParam)
	}
	out := dst(n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// ReadInt64Frame decodes one int64 frame. Int64 frames carry results, which
// go to the API's caller for good: the slice is allocated, not leased. A
// lease that never comes back takes a vector from the jobs that do return
// theirs (EXPERIMENTS.md, PR 23).
func ReadInt64Frame(r io.Reader, maxBytes int64) ([]int64, error) {
	n, err := readFrameHeader(r, 8, maxBytes)
	if err != nil {
		return nil, err
	}
	buf := mempool.Bytes.Get(8 * n)
	defer mempool.Bytes.Put(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		// Fewer payload bytes than the header promised: malformed frame.
		return nil, fmt.Errorf("api: binary frame payload: %w: %w", err, dcerr.ErrBadParam)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
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
	geti := func(key string, dst *int) error {
		v := q.Get(key)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("api: bad query %s=%q: %w", key, v, dcerr.ErrBadParam)
		}
		*dst = n
		return nil
	}
	get64 := func(key string, dst *int64) error {
		v := q.Get(key)
		if v == "" {
			return nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("api: bad query %s=%q: %w", key, v, dcerr.ErrBadParam)
		}
		*dst = n
		return nil
	}
	if v := q.Get("alpha"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("api: bad query alpha=%q: %w", v, dcerr.ErrBadParam)
		}
		req.Alpha = f
	}
	if err := geti("y", &req.Y); err != nil {
		return req, err
	}
	if err := geti("crossover", &req.Crossover); err != nil {
		return req, err
	}
	if err := geti("priority", &req.Priority); err != nil {
		return req, err
	}
	rel := Reliability{Fallback: q.Get("fallback")}
	if err := geti("max_retries", &rel.MaxRetries); err != nil {
		return req, err
	}
	if err := get64("backoff_ms", &rel.BackoffMS); err != nil {
		return req, err
	}
	if err := get64("deadline_ms", &rel.DeadlineMS); err != nil {
		return req, err
	}
	if err := get64("hedge_ms", &rel.HedgeMS); err != nil {
		return req, err
	}
	if rel != (Reliability{}) {
		req.Reliability = &rel
	}
	return req, nil
}

// acceptsType reports whether the Accept header lists the content type.
// The media types are distinctive enough that substring matching is exact.
func acceptsType(accept, contentType string) bool {
	return strings.Contains(accept, contentType)
}
