// Package client is the typed Go client for the HTTP/JSON job API
// (internal/api). It mirrors the in-process serving semantics over the
// wire: Submit returns a Handle, Handle.Wait blocks for the result under a
// caller context, Handle.Stream follows the job's per-level progress, and
// every error is restored to its dcerr sentinel — errors.Is(err,
// dcerr.ErrQueueFull) works the same against a remote server as against a
// local serve.Server.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/dcerr"
)

// bufPool recycles request-assembly buffers (submit bodies, binary or JSON)
// and the buffers JSON results are read into, and readerPool recycles the
// bufio.Reader fronting binary result decodes, so steady-state clients
// allocate none of them.
var (
	bufPool    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
)

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// maxPooledBuf is the largest request buffer putBuf keeps. The bound is what a
// server accepts by default: any body up to api.DefaultMaxBodyBytes is
// ordinary traffic whose buffer the next Submit wants back, and a larger one
// is refused with 413 unless the server was reconfigured, so its buffer is
// the outlier not worth pinning. The frame header's 16 bytes on top keep a
// payload of exactly the cap on the kept side. A bound of 4 MiB would sit
// 16 bytes under the 2^20-element frame, the size the pool matters most for,
// and drop, reallocate and zero that buffer on every Submit.
const maxPooledBuf = api.DefaultMaxBodyBytes + 16

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// drainClose exhausts and closes a response body. Leaving bytes unread —
// a decoder stopping at the closing brace — kills the keep-alive
// connection; the bounded drain lets the transport reuse it.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// Error is a non-2xx API response, carrying the HTTP status, the wire kind,
// and — when the kind maps to a dcerr sentinel — unwrapping to it, so
// errors.Is classification survives the round trip.
type Error struct {
	// Status is the HTTP response status.
	Status int
	// Kind is the wire label from dcerr.HTTPTable ("" outside the taxonomy).
	Kind string
	// Message is the server's human-readable error text.
	Message string
	// RetryAfter is the server's backoff hint (429/503 responses), zero
	// otherwise.
	RetryAfter time.Duration
	sentinel   error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("api: %s (http %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("api: http %d", e.Status)
}

// Unwrap exposes the dcerr sentinel for errors.Is, or nil for errors
// outside the taxonomy.
func (e *Error) Unwrap() error { return e.sentinel }

// Client talks to one API server.
type Client struct {
	base   string
	hc     *http.Client
	binary bool
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles). The default client has no overall timeout —
// waits are bounded per call by contexts.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBinary switches the payload hot path to the raw little-endian wire
// format: Submit posts the data as an application/x-hpu-int32le frame
// (request fields travel as query parameters) and Wait negotiates a binary
// result frame via Accept. Results are bit-identical to the JSON path;
// only the encoding — and the bytes and allocations it costs — changes.
func WithBinary() Option { return func(c *Client) { c.binary = true } }

// New returns a client for the server at base, e.g.
// "http://127.0.0.1:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		if o != nil {
			o(c)
		}
	}
	return c
}

// Handle tracks one remotely submitted job.
type Handle struct {
	c  *Client
	id uint64
}

// Job returns a handle for an already-known job ID — e.g. one submitted by
// another process — without a round trip.
func (c *Client) Job(id uint64) *Handle { return &Handle{c: c, id: id} }

// ID returns the server-assigned job ID.
func (h *Handle) ID() uint64 { return h.id }

// decodeErr turns a non-2xx response into an *Error.
func decodeErr(resp *http.Response) error {
	var body api.ErrorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = json.Unmarshal(raw, &body)
	if body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	e := &Error{
		Status:   resp.StatusCode,
		Kind:     body.Kind,
		Message:  body.Error,
		sentinel: dcerr.ByKind(body.Kind),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// timeoutHeader derives the Request-Timeout header from ctx's deadline, so
// the caller's budget propagates into the server-side job context exactly as
// an in-process Submit ctx would.
func timeoutHeader(ctx context.Context, req *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.Header.Set(api.RequestTimeoutHeader, rem.String())
		}
	}
}

// Submit posts a job. ctx bounds the submission round trip, and its
// deadline (if any) propagates to the server as the job's execution budget.
// A full admission queue surfaces as an error matching dcerr.ErrQueueFull
// with a populated RetryAfter; a shed GPU path as dcerr.ErrDegraded.
func (c *Client) Submit(ctx context.Context, job api.JobRequest) (*Handle, error) {
	// The body reads from a pooled buffer: a binary frame, or the JSON
	// encoding (appended in place, the grown storage kept for the pool).
	body := getBuf()
	url, contentType := c.base+"/v1/jobs", "application/json"
	if c.binary {
		if err := api.WriteInt32Frame(body, job.Data); err != nil {
			return nil, fmt.Errorf("api: encode job frame: %w", err)
		}
		url, contentType = url+"?"+job.QueryParams().Encode(), api.ContentTypeInt32
	} else {
		b, err := job.AppendJSON(body.AvailableBuffer())
		if err != nil {
			return nil, fmt.Errorf("api: encode job: %w", err)
		}
		*body = *bytes.NewBuffer(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	timeoutHeader(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: submit: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusAccepted {
		return nil, decodeErr(resp)
	}
	// The server accepts a job only after reading its whole body, so the
	// transport is done with the body and the next Submit may have it.
	// After anything else (a transport error, an early 400/503) net/http may
	// still be writing it, and on every other error path it is simply not
	// worth pooling: dropped.
	putBuf(body)
	var acc api.JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		return nil, fmt.Errorf("api: decode submit response: %w", err)
	}
	return &Handle{c: c, id: acc.ID}, nil
}

// Status fetches the job's current status without blocking on completion.
func (h *Handle) Status(ctx context.Context) (api.JobStatus, error) {
	var st api.JobStatus
	err := h.c.getJSON(ctx, fmt.Sprintf("%s/v1/jobs/%d", h.c.base, h.id), &st)
	return st, err
}

// Wait blocks until the job settles and returns its result, mirroring
// serve.Handle.Wait: ctx bounds only the wait (its deadline is forwarded so
// the server gives up at the same moment), and a job that finished with an
// error returns it restored to its dcerr sentinel.
func (h *Handle) Wait(ctx context.Context) (api.JobResult, error) {
	var res api.JobResult
	url := fmt.Sprintf("%s/v1/jobs/%d/result", h.c.base, h.id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return res, err
	}
	if h.c.binary {
		req.Header.Set("Accept", api.ContentTypeInt32+", "+api.ContentTypeInt64+", application/json")
	}
	timeoutHeader(ctx, req)
	resp, err := h.c.hc.Do(req)
	if err != nil {
		return res, fmt.Errorf("api: get %s: %w", url, err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return res, decodeErr(resp)
	}
	ct := resp.Header.Get("Content-Type")
	if !strings.HasPrefix(ct, api.ContentTypeInt32) && !strings.HasPrefix(ct, api.ContentTypeInt64) {
		// JSON (the server's default, and its answer for a result with no
		// binary form): the body through a pooled buffer. The decoded
		// slices are fresh, so the buffer goes back at return.
		buf := getBuf()
		defer putBuf(buf)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return res, fmt.Errorf("api: read %s: %w", url, err)
		}
		if err := res.UnmarshalJSON(buf.Bytes()); err != nil {
			return res, fmt.Errorf("api: decode %s: %w", url, err)
		}
		return res, nil
	}
	if err := json.Unmarshal([]byte(resp.Header.Get(api.ReportHeader)), &res.Report); err != nil {
		return res, fmt.Errorf("api: decode %s header: %w", api.ReportHeader, err)
	}
	res.ID = h.id
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil) // drop the body reference before pooling
		readerPool.Put(br)
	}()
	if strings.HasPrefix(ct, api.ContentTypeInt32) {
		res.Sorted, err = api.ReadInt32Frame(br, 0)
		return res, err
	}
	vals, err := api.ReadInt64Frame(br, 0)
	if err != nil {
		return res, err
	}
	// One int64 frame serves both remaining algorithms; the report's
	// algorithm name says which payload field it is.
	if res.Report.Algorithm == "dcsum" && len(vals) == 1 {
		res.Sum = &vals[0]
		return res, nil
	}
	res.Scan = vals
	return res, nil
}

// Stream follows the job's /events SSE feed, invoking fn for every event —
// an initial "status", a "span" per recorded execution interval (per-level
// batches, transfers, attempts), and a terminal "done" — until the stream
// ends, fn returns an error, or ctx is canceled. A clean end (server sent
// "done") returns nil.
func (h *Handle) Stream(ctx context.Context, fn func(api.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%d/events", h.c.base, h.id), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := h.c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var ev api.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("api: decode event: %w", err)
			}
			data = data[:0]
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Type == "done" {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		return fmt.Errorf("api: stream: %w", err)
	}
	return fmt.Errorf("api: event stream ended before done")
}

// Drain asks the server to drain a pool device gracefully; ctx (and its
// forwarded deadline) bounds the wait, after which the drain continues
// server-side.
func (c *Client) Drain(ctx context.Context, device int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/drain/%d", c.base, device), nil)
	if err != nil {
		return err
	}
	timeoutHeader(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: drain: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	return nil
}

// Metrics fetches the server's /metrics JSON snapshot.
func (c *Client) Metrics(ctx context.Context) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeErr(resp)
	}
	return io.ReadAll(resp.Body)
}

// Healthy reports whether the server answers /healthz with 200 (false while
// it drains toward shutdown).
func (c *Client) Healthy(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	drainClose(resp)
	return resp.StatusCode == http.StatusOK, nil
}

// getJSON runs one GET with the ctx deadline forwarded, decoding a 200 into
// out and everything else into an *Error.
func (c *Client) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	timeoutHeader(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: get %s: %w", url, err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s: %w", url, err)
	}
	return nil
}
