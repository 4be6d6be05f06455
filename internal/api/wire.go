// Package api exposes a serve.Server over HTTP/JSON — the wire protocol
// that turns the in-process serving layer (bounded admission, weighted-fair
// dispatch, reliability policies, device pool) into a remote job service.
// DESIGN.md §14 documents the protocol; internal/api/client is the matching
// typed Go client.
//
// Routes:
//
//	POST /v1/jobs             submit a job (JobRequest → JobAccepted)
//	GET  /v1/jobs/{id}        job status (JobStatus)
//	GET  /v1/jobs/{id}/result block for the result (JobResult)
//	GET  /v1/jobs/{id}/events SSE stream of per-level progress spans
//	POST /v1/drain/{device}   drain a pool device out of rotation
//	GET  /metrics             JSON snapshot of the metrics registry
//	GET  /healthz             liveness (200, or 503 while draining)
//
// Error responses carry an ErrorBody whose Kind is a row of
// dcerr.HTTPTable, the single sentinel→status mapping shared by server and
// client, so a remote caller sees backpressure (429 + Retry-After on a full
// admission queue) and breaker state (503 on a shed GPU path) exactly as an
// in-process caller sees ErrQueueFull and ErrDegraded.
package api

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/serve"
)

// JobRequest is the POST /v1/jobs payload.
type JobRequest struct {
	// Algorithm selects the instance kind: "mergesort", "scan" or "sum".
	Algorithm string `json:"algorithm"`
	// Data is the instance input (power-of-two length).
	Data []int32 `json:"data"`
	// Strategy selects the executor: "seq-1cpu", "bf-cpu", "basic-hybrid",
	// "advanced-hybrid", "gpu-only" (the serve.Strategy names) or "auto",
	// which lets the server's online calibrator pick the cheapest strategy
	// for this instance at dispatch. Defaults to "bf-cpu".
	Strategy string `json:"strategy,omitempty"`
	// Alpha and Y parameterize "advanced-hybrid"; Crossover parameterizes
	// "basic-hybrid".
	Alpha     float64 `json:"alpha,omitempty"`
	Y         int     `json:"y,omitempty"`
	Crossover int     `json:"crossover,omitempty"`
	// Priority is the weighted-fair scheduling weight (≥ 1; 0 means 1).
	Priority int `json:"priority,omitempty"`
	// Coalesce applies the §6.3 coalescing layout around the device phase.
	Coalesce bool `json:"coalesce,omitempty"`
	// Reliability is the job's optional fault-handling policy.
	Reliability *Reliability `json:"reliability,omitempty"`
}

// Reliability is the wire form of the serving layer's per-job reliability
// policy (serve.WithRetry and friends). The server owns the payload, so
// re-executing policies need no client-side fresh-instance factory.
type Reliability struct {
	// MaxRetries re-executes a device-faulted job up to this many more times.
	MaxRetries int `json:"max_retries,omitempty"`
	// BackoffMS is the pause between retry attempts, in milliseconds.
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// DeadlineMS bounds the job's total execution budget, in milliseconds.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// HedgeMS, when positive, starts a CPU duplicate of a straggling
	// GPU-bound job after this many milliseconds; first result wins.
	HedgeMS int64 `json:"hedge_ms,omitempty"`
	// Fallback selects the degradation path: "" (none) or "cpu-only".
	Fallback string `json:"fallback,omitempty"`
}

// JobAccepted is the POST /v1/jobs success response.
type JobAccepted struct {
	// ID is the job's server-assigned identifier, used in every other route.
	ID uint64 `json:"id"`
	// Status is "queued".
	Status string `json:"status"`
}

// Report is the wire form of core.Report.
type Report struct {
	Algorithm string `json:"algorithm"`
	Strategy  string `json:"strategy"`
	// ChosenStrategy is set for jobs submitted with "strategy": "auto": the
	// strategy the server's calibrator selected (which the Strategy field
	// then reflects, unless a fallback or hedge re-ran the job elsewhere).
	ChosenStrategy    string  `json:"chosen_strategy,omitempty"`
	Seconds           float64 `json:"seconds"`
	CPUPortionSeconds float64 `json:"cpu_portion_seconds,omitempty"`
	GPUPortionSeconds float64 `json:"gpu_portion_seconds,omitempty"`
	Partial           bool    `json:"partial,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response. State is "running" until the
// job settles (queued jobs are "running" too — the admission queue is part
// of the service), then "done"; a failed job is "done" with Error set.
type JobStatus struct {
	ID    uint64 `json:"id"`
	State string `json:"state"`
	// Error is the job's terminal error (done jobs only); its Kind matches
	// dcerr.HTTPTable so clients can restore the sentinel.
	Error *ErrorBody `json:"error,omitempty"`
	// Report is the job's execution report (done jobs only; partial for
	// canceled runs).
	Report *Report `json:"report,omitempty"`
	// Attempts, HedgeWon and FellBack mirror the Handle accessors: how many
	// executions ran, and whether the hedge or the CPU fallback produced the
	// result.
	Attempts int  `json:"attempts,omitempty"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	FellBack bool `json:"fell_back,omitempty"`
	// QueueWaitSeconds is how long the job waited for dispatch.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result response. Exactly one of the
// payload fields is set, matching the job's algorithm.
type JobResult struct {
	ID     uint64  `json:"id"`
	Report Report  `json:"report"`
	Sorted []int32 `json:"sorted,omitempty"` // mergesort
	Scan   []int64 `json:"scan,omitempty"`   // scan
	Sum    *int64  `json:"sum,omitempty"`    // sum
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Kind is the stable wire label from dcerr.HTTPTable ("" when the error
	// is outside the taxonomy, e.g. a malformed request body).
	Kind string `json:"kind,omitempty"`
}

// Event is one SSE event payload on GET /v1/jobs/{id}/events. Span events
// stream per-level execution progress (Type "span"); the final event is
// Type "done" carrying the job's terminal status.
type Event struct {
	Type string `json:"type"` // "status", "span" or "done"
	// Span fields (Type "span"): one recorded execution interval. Unit is
	// "cpu", "gpu", "link", "queue", "job" or "attempt"; Level is the
	// recursion level for unit spans; Start and End are backend seconds.
	Unit  string  `json:"unit,omitempty"`
	Level int     `json:"level,omitempty"`
	Label string  `json:"label,omitempty"`
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	// Status is set on "status" (initial state) and "done" (terminal) events.
	Status *JobStatus `json:"status,omitempty"`
}

// RequestTimeoutHeader carries the caller's deadline, propagated into the
// job's execution context on submit and bounding the wait on result reads.
// The value is a Go duration string ("1.5s") or a plain number of seconds.
const RequestTimeoutHeader = "Request-Timeout"

// ParseTimeout parses a RequestTimeoutHeader value.
func ParseTimeout(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		if d <= 0 {
			return 0, fmt.Errorf("api: non-positive timeout %q: %w", v, dcerr.ErrBadParam)
		}
		return d, nil
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs <= 0 {
			return 0, fmt.Errorf("api: non-positive timeout %q: %w", v, dcerr.ErrBadParam)
		}
		return time.Duration(secs * float64(time.Second)), nil
	}
	return 0, fmt.Errorf("api: bad %s %q: %w", RequestTimeoutHeader, v, dcerr.ErrBadParam)
}

// ParseStrategy maps a wire strategy name to serve.Strategy. The names are
// the serve.Strategy.String() values; "" defaults to bf-cpu.
func ParseStrategy(s string) (serve.Strategy, error) {
	switch strings.ToLower(s) {
	case "", core.BreadthFirstCPUStrategy:
		return serve.BreadthFirstCPU, nil
	case core.SequentialStrategy, "sequential":
		return serve.Sequential, nil
	case core.BasicHybridStrategy:
		return serve.BasicHybrid, nil
	case core.AdvancedHybridStrategy:
		return serve.AdvancedHybrid, nil
	case core.GPUOnlyStrategy:
		return serve.GPUOnly, nil
	case "auto":
		return serve.Auto, nil
	}
	return 0, fmt.Errorf("api: unknown strategy %q: %w", s, dcerr.ErrBadParam)
}

// Options converts the wire reliability policy to serving-layer options.
func (r *Reliability) Options() ([]core.Option, error) {
	if r == nil {
		return nil, nil
	}
	if r.MaxRetries < 0 || r.BackoffMS < 0 || r.DeadlineMS < 0 || r.HedgeMS < 0 {
		return nil, fmt.Errorf("api: negative reliability field: %w", dcerr.ErrBadParam)
	}
	var opts []core.Option
	if r.MaxRetries > 0 {
		opts = append(opts, serve.WithRetry(r.MaxRetries, time.Duration(r.BackoffMS)*time.Millisecond))
	}
	if r.DeadlineMS > 0 {
		opts = append(opts, serve.WithDeadline(time.Duration(r.DeadlineMS)*time.Millisecond))
	}
	if r.HedgeMS > 0 {
		opts = append(opts, serve.WithHedge(time.Duration(r.HedgeMS)*time.Millisecond))
	}
	switch strings.ToLower(r.Fallback) {
	case "":
	case "cpu-only":
		opts = append(opts, serve.WithFallback(serve.CPUOnly))
	default:
		return nil, fmt.Errorf("api: unknown fallback %q: %w", r.Fallback, dcerr.ErrBadParam)
	}
	return opts, nil
}

// wireReport converts a core.Report.
func wireReport(r core.Report) Report {
	return Report{
		Algorithm:         r.Algorithm,
		Strategy:          r.Strategy,
		ChosenStrategy:    r.AutoStrategy,
		Seconds:           r.Seconds,
		CPUPortionSeconds: r.CPUPortionSeconds,
		GPUPortionSeconds: r.GPUPortionSeconds,
		Partial:           r.Partial,
	}
}
