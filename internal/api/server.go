package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
)

// MaxBodyBytes bounds a request body, binary frame header included;
// oversized submissions are rejected with 413.
const MaxBodyBytes = 8 << 20

// Config is the resolved form of the Options.
type Config struct {
	// RetainJobs bounds how many settled jobs stay queryable. Beyond it
	// the oldest settled job whose result has been served is evicted; one
	// whose result has not been served yet stays until more than RetainJobs
	// such jobs wait behind the newest RetainJobs. So between RetainJobs
	// and 2·RetainJobs settled jobs are kept. Defaults to 4096.
	RetainJobs int
	// EventPoll is how often /events polls the recorder for new spans.
	// Defaults to 25ms.
	EventPoll time.Duration
	// Metrics, if non-nil, receives the api_* metrics; expose it to remote
	// scrapers via GET /metrics.
	Metrics *metrics.Registry
	// Trace, if non-nil, is the span recorder /events streams from and
	// GET /debug/trace downloads as Chrome trace-event JSON. It
	// should be the same recorder the serve.Server was built with
	// (serve.WithRecorder), so per-level executor spans carry job IDs; API
	// request spans (unit "api", labeled with the request id) land in it
	// too.
	Trace *trace.Recorder
}

// Option configures a Server.
type Option func(*Config)

// WithRetainJobs bounds how many settled jobs remain queryable: n, plus up
// to n more whose results have not been read yet (Config.RetainJobs).
func WithRetainJobs(n int) Option { return func(c *Config) { c.RetainJobs = n } }

// WithEventPoll sets the /events recorder poll interval.
func WithEventPoll(d time.Duration) Option { return func(c *Config) { c.EventPoll = d } }

// WithMetrics directs the api_* metrics into reg and serves reg on
// GET /metrics. Share the registry with the serve.Server (serve.WithMetrics)
// so one scrape sees the whole stack.
func WithMetrics(reg *metrics.Registry) Option { return func(c *Config) { c.Metrics = reg } }

// WithRecorder sets the span recorder /events streams from and API request
// spans are recorded into. Share it with the serve.Server
// (serve.WithRecorder) so the stream carries per-level executor progress.
func WithRecorder(rec *trace.Recorder) Option { return func(c *Config) { c.Trace = rec } }

// job is one tracked submission. The API server owns the instances it
// built for the job (the submit-time alg and, via Job.Fresh, the settled
// result instance) plus any pooled binary payload; all are returned to the
// buffer pools when the job leaves the retention ring. refs brackets
// handlers that hold the job, so release waits for in-flight readers.
type job struct {
	id     uint64
	h      *serve.Handle
	cancel context.CancelFunc
	alg    core.Alg
	data   []int32 // the submit payload, leased from the pool on the binary and JSON hand paths
	refs   sync.WaitGroup
	served atomic.Bool // the result route has answered for the settled job
}

// Server is the HTTP/JSON front-end over a serve.Server.
type Server struct {
	pool *serve.Server
	cfg  Config

	mu      sync.Mutex
	jobs    map[uint64]*job
	settled []*job // settled jobs, oldest first

	jobsWG   sync.WaitGroup
	draining atomic.Bool
	reqSeq   atomic.Uint64
	start    time.Time

	httpMu  sync.Mutex
	httpSrv *http.Server

	handler http.Handler

	mRequests, mBytesIn, mBytesOut     *metrics.Counter
	mStatus2xx, mStatus4xx, mStatus5xx *metrics.Counter
	mInFlight                          *metrics.Gauge
	routeReq                           map[string]*metrics.Counter
	routeLat                           map[string]*metrics.Histogram
}

// Metric names recorded when WithMetrics is configured.
const (
	MetricRequests  = "api_requests_total"
	MetricInFlight  = "api_inflight"
	MetricBytesIn   = "api_bytes_in_total"
	MetricBytesOut  = "api_bytes_out_total"
	MetricStatus2xx = "api_status_2xx_total"
	MetricStatus4xx = "api_status_4xx_total"
	MetricStatus5xx = "api_status_5xx_total"
	// MetricRouteRequestsFmt and MetricRouteLatencyFmt are per-route (the %s
	// is the route name: submit, status, result, events, drain, metrics,
	// healthz, trace).
	MetricRouteRequestsFmt = "api_requests_%s_total"
	MetricRouteLatencyFmt  = "api_latency_seconds_%s"
)

// routes is the fixed route set instrumented per route.
var routes = []string{"submit", "status", "result", "events", "drain", "metrics", "healthz", "trace"}

// New builds an API server over the pool. The pool is borrowed: Shutdown
// stops HTTP admission and drains the jobs this API submitted, but closing
// the serve.Server (and its backends) stays with the caller.
func New(pool *serve.Server, opts ...Option) (*Server, error) {
	if pool == nil {
		return nil, fmt.Errorf("api: nil serve.Server: %w", dcerr.ErrBadParam)
	}
	cfg := Config{}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 4096
	}
	if cfg.EventPoll == 0 {
		cfg.EventPoll = 25 * time.Millisecond
	}
	if cfg.RetainJobs < 0 || cfg.EventPoll < 0 {
		return nil, fmt.Errorf("api: negative limit: %w", dcerr.ErrBadParam)
	}
	s := &Server{
		pool:  pool,
		cfg:   cfg,
		jobs:  map[uint64]*job{},
		start: time.Now(),
	}
	if reg := cfg.Metrics; reg != nil {
		s.mRequests = reg.Counter(MetricRequests)
		s.mInFlight = reg.Gauge(MetricInFlight)
		s.mBytesIn = reg.Counter(MetricBytesIn)
		s.mBytesOut = reg.Counter(MetricBytesOut)
		s.mStatus2xx = reg.Counter(MetricStatus2xx)
		s.mStatus4xx = reg.Counter(MetricStatus4xx)
		s.mStatus5xx = reg.Counter(MetricStatus5xx)
		s.routeReq = map[string]*metrics.Counter{}
		s.routeLat = map[string]*metrics.Histogram{}
		for _, rt := range routes {
			s.routeReq[rt] = reg.Counter(fmt.Sprintf(MetricRouteRequestsFmt, rt))
			s.routeLat[rt] = reg.Histogram(fmt.Sprintf(MetricRouteLatencyFmt, rt))
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.route("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.route("status", s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.route("result", s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.route("events", s.handleEvents))
	mux.HandleFunc("POST /v1/drain/{device}", s.route("drain", s.handleDrain))
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	if cfg.Trace != nil {
		mux.HandleFunc("GET /debug/trace", s.route("trace", s.handleTrace))
	}
	s.handler = mux
	return s, nil
}

// Handler returns the API's http.Handler, for callers that bring their own
// http.Server (tests, embedding in a larger mux).
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until Shutdown. It applies the server's
// header/idle timeouts, and returns nil after a clean Shutdown — also when
// Shutdown came first, in which case it closes ln without serving.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
	s.httpMu.Lock()
	if s.draining.Load() {
		// Shutdown has begun and may already have looked for httpSrv: it
		// would never stop this one.
		s.httpMu.Unlock()
		ln.Close()
		return nil
	}
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown is the graceful drain: new submissions are refused with 503 (and
// Retry-After, so well-behaved clients go elsewhere), every job this API
// admitted runs to settlement — their status/result/events requests keep
// being served — and only then does the listener close. ctx bounds the whole
// wait; on expiry in-flight connections are closed forcibly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock() // admit's mutex: no job registers once draining is set
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return ctx.Err()
	}
	if ctx.Err() != nil {
		srv.Close()
		return ctx.Err()
	}
	err := srv.Shutdown(ctx)
	if err == nil {
		// Clean drain: every connection is gone, so the retained jobs'
		// instances and payloads can settle back into the buffer pools.
		s.mu.Lock()
		retained := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			retained = append(retained, j)
		}
		s.jobs = map[uint64]*job{}
		s.settled = nil
		s.mu.Unlock()
		for _, j := range retained {
			s.releaseJob(j)
		}
	}
	return err
}

// releaseJob returns a job's server-owned instances and pooled payload to
// the buffer pools. Callers must guarantee no handler still reads the job
// (it is out of the map and its refs drained).
func (s *Server) releaseJob(j *job) {
	j.refs.Wait()
	if ra := j.h.ResultAlg(); ra != nil && ra != j.alg {
		core.ReleaseAlg(ra)
	}
	if j.alg != nil {
		core.ReleaseAlg(j.alg)
		j.alg = nil
	}
	mempool.Int32s.Put(j.data)
	j.data = nil
}

// route wraps a handler with the per-request instrumentation: request
// counters, in-flight gauge, status-class counters, byte counters, per-route
// latency histograms, request-id tagging (X-Request-Id in, echoed out,
// stamped on the request's trace span), and the drain gate for submissions.
func (s *Server) route(name string, h func(http.ResponseWriter, *http.Request) uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = fmt.Sprintf("r%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", rid)
		s.mRequests.Inc()
		if c := s.routeReq[name]; c != nil {
			c.Inc()
		}
		s.mInFlight.Add(1)
		defer s.mInFlight.Add(-1)

		cw := &countingWriter{ResponseWriter: w}
		body := &countingReader{inner: r.Body}
		r.Body = body
		jobID := h(cw, r)

		s.mBytesIn.Add(uint64(body.n.Load()))
		s.mBytesOut.Add(uint64(cw.bytes))
		switch {
		case cw.status >= 500:
			s.mStatus5xx.Inc()
		case cw.status >= 400:
			s.mStatus4xx.Inc()
		default:
			s.mStatus2xx.Inc()
		}
		dt := time.Since(t0)
		if hist := s.routeLat[name]; hist != nil {
			hist.Observe(dt.Seconds())
		}
		if s.cfg.Trace != nil {
			end := time.Since(s.start).Seconds()
			s.cfg.Trace.Add(trace.Span{
				Unit:  "api",
				Label: fmt.Sprintf("%s rid=%s status=%d", name, rid, cw.statusOr200()),
				Job:   jobID,
				Start: end - dt.Seconds(),
				End:   end,
			})
		}
	}
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps err through dcerr.HTTPTable and writes the ErrorBody.
// Backpressure statuses carry Retry-After so remote callers shed load the
// way in-process callers back off on ErrQueueFull.
func writeErr(w http.ResponseWriter, err error) {
	status := dcerr.HTTPStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorBody{Error: err.Error(), Kind: dcerr.KindOf(err)})
}

// writeErrStatus writes an ErrorBody with an explicit status for errors
// outside the dcerr taxonomy (404s, malformed bodies).
func writeErrStatus(w http.ResponseWriter, status int, msg, kind string) {
	writeJSON(w, status, ErrorBody{Error: msg, Kind: kind})
}

// countingWriter tallies the response status and body bytes.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *countingWriter) statusOr200() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Flush forwards to the wrapped writer, so SSE streaming works through the
// instrumentation layer.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		f.Flush()
	}
}

// countingReader tallies consumed request-body bytes.
type countingReader struct {
	inner interface {
		Read([]byte) (int, error)
		Close() error
	}
	n atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	r.n.Add(int64(n))
	return n, err
}

func (r *countingReader) Close() error { return r.inner.Close() }
