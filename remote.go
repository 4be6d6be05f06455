package hybriddc

// Remote serving facade: the HTTP/JSON job API (internal/api) and its typed
// Go client (internal/api/client), re-exported so callers stand up a remote
// serving stack — or talk to one — without importing internal packages.
// DESIGN.md §14 documents the wire protocol.

import (
	"repro/internal/api"
	"repro/internal/api/client"
)

// APIServer is the HTTP/JSON front-end over a Server (serving pool). Build
// one with NewAPIServer, serve it with APIServer.Serve, and stop it with
// APIServer.Shutdown — which refuses new submissions (503 + Retry-After),
// drains every admitted job, and only then closes the listener.
type APIServer = api.Server

// APIServerOption configures an APIServer.
type APIServerOption = api.Option

// NewAPIServer builds the HTTP front-end over a serving pool. The pool is
// borrowed: APIServer.Shutdown drains the API's jobs, but closing the pool
// (and its backends) stays with the caller.
func NewAPIServer(srv *Server, opts ...APIServerOption) (*APIServer, error) {
	return api.New(srv, opts...)
}

// APIServer options. Share the metrics registry and trace recorder with the
// pool (WithServerMetrics / WithServerRecorder) so one /metrics scrape and
// one /events stream see the whole stack.
var (
	WithAPIMetrics    = api.WithMetrics
	WithAPIRecorder   = api.WithRecorder
	WithAPIRetainJobs = api.WithRetainJobs
	WithAPIEventPoll  = api.WithEventPoll
)

// Wire types shared by the API server and client.
type (
	// APIJobRequest is the POST /v1/jobs payload.
	APIJobRequest = api.JobRequest
	// APIJobStatus is the GET /v1/jobs/{id} response.
	APIJobStatus = api.JobStatus
	// APIJobResult is the GET /v1/jobs/{id}/result response.
	APIJobResult = api.JobResult
	// APIReliability is the wire form of the per-job reliability policy.
	APIReliability = api.Reliability
	// APIEvent is one /events SSE payload ("status", "span" or "done").
	APIEvent = api.Event
	// APIErrorBody is the JSON body of every non-2xx API response.
	APIErrorBody = api.ErrorBody
)

// RequestTimeoutHeader is the HTTP header carrying a caller's deadline; on
// submit it bounds the job's execution, on result reads it bounds the wait.
const RequestTimeoutHeader = api.RequestTimeoutHeader

// APIClient is the typed client for a remote APIServer. Errors unwrap to the
// same sentinels in-process callers see (ErrQueueFull, ErrDegraded, ...), so
// errors.Is works identically against local and remote serving.
type APIClient = client.Client

// RemoteHandle tracks one remotely submitted job: Wait blocks for the
// result, Status polls, Stream follows per-level progress over SSE.
type RemoteHandle = client.Handle

// APIClientError is a non-2xx response: HTTP status, wire kind, Retry-After
// hint, unwrapping to the matching dcerr sentinel.
type APIClientError = client.Error

// NewAPIClient returns a client for the API server at base, e.g.
// "http://127.0.0.1:8080".
var NewAPIClient = client.New

// WithAPIHTTPClient substitutes the client's underlying http.Client
// (timeouts, transports, test doubles).
var WithAPIHTTPClient = client.WithHTTPClient

// WithAPIBinary switches the client's payload hot path to the raw
// little-endian wire format (application/x-hpu-int32le frames on submit,
// Accept-negotiated binary result frames), bit-identical to JSON at a
// fraction of the bytes and allocations.
var WithAPIBinary = client.WithBinary
