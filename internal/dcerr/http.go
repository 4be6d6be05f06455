package dcerr

import (
	"errors"
	"net/http"
)

// HTTPMapping is one row of the wire contract: a sentinel error, its stable
// wire label (the "kind" field of API error bodies), and the HTTP status a
// remote caller sees. The table is the single source of truth shared by the
// HTTP front-end (internal/api) and the Go client (internal/api/client),
// which maps kinds back to sentinels so errors.Is keeps working across the
// wire.
type HTTPMapping struct {
	// Err is the sentinel matched with errors.Is.
	Err error
	// Kind is the stable wire label; it never changes once published.
	Kind string
	// Status is the HTTP response status.
	Status int
}

// HTTPTable maps every sentinel to its wire kind and HTTP status, ordered by
// match priority: the first errors.Is hit wins, so the more specific
// reliability sentinels precede the generic ones they may wrap
// (ErrRetriesExhausted always wraps the final attempt's ErrDeviceFault, and
// must be matched first).
//
// The status choices follow what the caller can do about the failure:
//
//   - 400: the request itself is wrong — fix the payload or parameters.
//   - 429: the admission queue is full — back off and retry (Retry-After).
//   - 502: the device path failed upstream — the request was valid, retry
//     or attach a reliability policy.
//   - 503: the service is shedding (open circuit breaker) or shutting
//     down — retry later (Retry-After).
//   - 504: the job's deadline or the request's wait budget expired.
var HTTPTable = []HTTPMapping{
	{Err: ErrQueueFull, Kind: "queue-full", Status: http.StatusTooManyRequests},
	{Err: ErrRetriesExhausted, Kind: "retries-exhausted", Status: http.StatusBadGateway},
	{Err: ErrDegraded, Kind: "degraded", Status: http.StatusServiceUnavailable},
	{Err: ErrDeviceFault, Kind: "device-fault", Status: http.StatusBadGateway},
	{Err: ErrServerClosed, Kind: "server-closed", Status: http.StatusServiceUnavailable},
	{Err: ErrBackendClosed, Kind: "backend-closed", Status: http.StatusServiceUnavailable},
	{Err: ErrCanceled, Kind: "canceled", Status: http.StatusGatewayTimeout},
	{Err: ErrNotPowerOfTwo, Kind: "not-power-of-two", Status: http.StatusBadRequest},
	{Err: ErrBadShape, Kind: "bad-shape", Status: http.StatusBadRequest},
	{Err: ErrBadAlpha, Kind: "bad-alpha", Status: http.StatusBadRequest},
	{Err: ErrBadLevel, Kind: "bad-level", Status: http.StatusBadRequest},
	{Err: ErrNoGPU, Kind: "no-gpu", Status: http.StatusBadRequest},
	{Err: ErrBadParam, Kind: "bad-param", Status: http.StatusBadRequest},
}

// HTTPStatus classifies err against HTTPTable and returns its status.
// Unclassified errors (and nil) map to 500.
func HTTPStatus(err error) int {
	for _, m := range HTTPTable {
		if errors.Is(err, m.Err) {
			return m.Status
		}
	}
	return http.StatusInternalServerError
}

// KindOf classifies err against HTTPTable and returns its wire kind, or ""
// for an unclassified error.
func KindOf(err error) string {
	for _, m := range HTTPTable {
		if errors.Is(err, m.Err) {
			return m.Kind
		}
	}
	return ""
}

// ByKind returns the sentinel for a wire kind, or nil for an unknown one —
// the client-side inverse of KindOf, restoring errors.Is classification
// after a round trip through the HTTP API.
func ByKind(kind string) error {
	for _, m := range HTTPTable {
		if m.Kind == kind {
			return m.Err
		}
	}
	return nil
}
