package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/mempool"
	"repro/internal/serve"
)

// buildAlg constructs a fresh instance for a wire algorithm kind. It is both
// the submission path and the Job.Fresh factory re-executing reliability
// policies start over from.
func buildAlg(kind string, data []int32) (core.Alg, error) {
	switch strings.ToLower(kind) {
	case "mergesort":
		return mergesort.New(data)
	case "scan":
		return scan.New(data)
	case "sum", "dcsum":
		return dcsum.New(data)
	}
	return nil, fmt.Errorf("api: unknown algorithm %q: %w", kind, dcerr.ErrBadParam)
}

// extractResult reads the settled instance's output into the wire result.
func extractResult(res *JobResult, alg core.Alg) error {
	switch a := alg.(type) {
	case *mergesort.Sorter:
		res.Sorted = a.Result()
	case *scan.Scanner:
		res.Scan = a.Result()
	case *dcsum.Summer:
		v := a.Result()
		res.Sum = &v
	default:
		return fmt.Errorf("api: no result extractor for %T: %w", alg, dcerr.ErrBadParam)
	}
	return nil
}

// errDraining refuses a submission that arrives once Shutdown has begun.
var errDraining = fmt.Errorf("api: shutting down: %w", dcerr.ErrServerClosed)

// handleSubmit is POST /v1/jobs: validate, build the instance, propagate the
// caller's Request-Timeout into the job context, submit, and track the
// handle. Returns the job ID for request-span tagging.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) uint64 {
	if s.draining.Load() { // the cheap refusal, before the body is read; admit decides
		writeErr(w, errDraining)
		return 0
	}
	timeout, err := ParseTimeout(r.Header.Get(RequestTimeoutHeader))
	if err != nil {
		writeErr(w, err)
		return 0
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	var req JobRequest
	var pooled []int32 // the payload, job-owned and returned to the pool at eviction
	if strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeInt32) {
		// Binary submission: the body is one int32 frame, every other
		// JobRequest field travels as query parameters.
		req, err = RequestFromQuery(r.URL.Query())
		if err != nil {
			writeErr(w, err)
			return 0
		}
		pooled, err = readFrame(r.Body, MaxBodyBytes, mempool.Int32s)
		if err != nil {
			writeBodyErr(w, err, "api: malformed binary frame: ")
			return 0
		}
		req.Data = pooled
	} else {
		// JSON submission: the whole body, then json.Unmarshal's rule, so
		// anything but whitespace after the object is a 400. The hand path
		// leases the data array from the pool; encoding/json's is fresh.
		// Either way the job owns it.
		buf := getBuf()
		_, err = buf.ReadFrom(r.Body)
		if err == nil {
			req, err = decodeJobRequest(buf.Bytes())
		}
		putBuf(buf)
		if err != nil {
			writeBodyErr(w, err, "api: malformed JSON body: ")
			return 0
		}
		pooled = req.Data
	}
	// From here on a failed submission must hand the pooled payload back
	// (a nil slice is a no-op Put).
	strat, err := ParseStrategy(req.Strategy)
	if err != nil {
		mempool.Int32s.Put(pooled)
		writeErr(w, err)
		return 0
	}
	alg, err := buildAlg(req.Algorithm, req.Data)
	if err != nil {
		mempool.Int32s.Put(pooled)
		writeErr(w, err)
		return 0
	}
	var opts []core.Option
	if req.Priority > 0 {
		opts = append(opts, core.WithPriority(req.Priority))
	}
	if req.Coalesce {
		opts = append(opts, core.WithCoalesce())
	}
	relOpts, err := req.Reliability.Options()
	if err != nil {
		core.ReleaseAlg(alg)
		mempool.Int32s.Put(pooled)
		writeErr(w, err)
		return 0
	}
	opts = append(opts, relOpts...)
	if !s.admit() {
		core.ReleaseAlg(alg)
		mempool.Int32s.Put(pooled)
		writeErr(w, errDraining)
		return 0
	}

	// The job context outlives the HTTP request on purpose: submission is
	// asynchronous, and only the caller's declared deadline — not its
	// connection lifetime — bounds the execution.
	jobCtx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		jobCtx, cancel = context.WithTimeout(jobCtx, timeout)
	}
	kind, data := req.Algorithm, req.Data
	h, err := s.pool.Submit(jobCtx, serve.Job{
		Alg:       alg,
		Strategy:  strat,
		Alpha:     req.Alpha,
		Y:         req.Y,
		Crossover: req.Crossover,
		Fresh:     func() (core.Alg, error) { return buildAlg(kind, data) },
	}, opts...)
	if err != nil {
		s.jobsWG.Done()
		cancel()
		core.ReleaseAlg(alg)
		mempool.Int32s.Put(pooled)
		writeErr(w, err)
		return 0
	}

	j := &job{id: h.ID, h: h, cancel: cancel, alg: alg, data: pooled}
	s.mu.Lock()
	s.jobs[h.ID] = j
	s.mu.Unlock()
	go s.watch(j)

	writeJSON(w, http.StatusAccepted, JobAccepted{ID: h.ID, Status: "queued"})
	return h.ID
}

// writeBodyErr answers a submission whose body could not be read or
// decoded: 413 past the body limit, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error, prefix string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErrStatus(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("api: request body over %d bytes", tooBig.Limit), "bad-param")
		return
	}
	writeErrStatus(w, http.StatusBadRequest, prefix+err.Error(), "bad-param")
}

// admit registers one more job with Shutdown's drain wait, or refuses it
// because the drain has begun. Both sides decide under mu — Shutdown flips
// draining there — so a job is either refused or counted before the wait
// starts: no Add from zero runs beside Wait, and none is admitted after it
// returned. The caller owes a jobsWG.Done (watch pays it at settlement).
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.jobsWG.Add(1)
	return true
}

// watch releases the job's deadline timer at settlement and applies the
// retention bound. The newest RetainJobs settled jobs always stay. Behind
// them, a job whose result has been served is evicted, oldest first; one
// whose result has not stays until more than RetainJobs of those wait there,
// so a client that stalls between settlement and its result read still
// finds the job. At most 2·RetainJobs settled jobs are kept. Evicted jobs
// return their instances and pooled payloads once no handler still reads
// them — removal from the map under the mutex guarantees no new reader
// appears.
func (s *Server) watch(j *job) {
	defer s.jobsWG.Done()
	<-j.h.Done()
	j.cancel()
	s.mu.Lock()
	s.settled = append(s.settled, j)
	var evicted []*job
	for behind := len(s.settled) - s.cfg.RetainJobs; behind > 0; behind-- {
		i := slices.IndexFunc(s.settled[:behind], func(sj *job) bool { return sj.served.Load() })
		if i < 0 {
			if behind <= s.cfg.RetainJobs {
				break
			}
			i = 0
		}
		ej := s.settled[i]
		evicted = append(evicted, ej)
		delete(s.jobs, ej.id)
		if i == 0 {
			s.settled[0] = nil
			s.settled = s.settled[1:]
		} else {
			s.settled = slices.Delete(s.settled, i, i+1)
		}
	}
	s.mu.Unlock()
	for _, ej := range evicted {
		go s.releaseJob(ej)
	}
}

// lookup finds a tracked job by the {id} path value and takes a read
// reference on it; the caller must j.refs.Done() when finished, so
// eviction-time release can wait out in-flight readers. A miss writes the
// 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErrStatus(w, http.StatusBadRequest, "api: bad job id "+r.PathValue("id"), "bad-param")
		return nil
	}
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil {
		j.refs.Add(1)
	}
	s.mu.Unlock()
	if j == nil {
		writeErrStatus(w, http.StatusNotFound, fmt.Sprintf("api: no job %d", id), "not-found")
		return nil
	}
	return j
}

// status builds the job's wire status. Blocking accessors are only touched
// once Done is closed.
func (s *Server) status(j *job) JobStatus {
	st := JobStatus{ID: j.id, State: "running"}
	select {
	case <-j.h.Done():
	default:
		return st
	}
	st.State = "done"
	rep, err := j.h.Report()
	wr := wireReport(rep)
	st.Report = &wr
	if err != nil {
		st.Error = &ErrorBody{Error: err.Error(), Kind: dcerr.KindOf(err)}
	}
	st.Attempts = j.h.Attempts()
	st.HedgeWon = j.h.HedgeWon()
	st.FellBack = j.h.FellBack()
	st.QueueWaitSeconds = j.h.QueueWaitSeconds()
	return st
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) uint64 {
	j := s.lookup(w, r)
	if j == nil {
		return 0
	}
	defer j.refs.Done()
	writeJSON(w, http.StatusOK, s.status(j))
	return j.id
}

// handleResult is GET /v1/jobs/{id}/result: block until the job settles —
// bounded by the request context and an optional Request-Timeout — then
// return the result payload, or the job's error mapped through
// dcerr.HTTPTable. A wait that expires while the job is still running is
// 504; the job keeps running.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) uint64 {
	j := s.lookup(w, r)
	if j == nil {
		return 0
	}
	defer j.refs.Done()
	timeout, err := ParseTimeout(r.Header.Get(RequestTimeoutHeader))
	if err != nil {
		writeErr(w, err)
		return j.id
	}
	waitCtx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(waitCtx, timeout)
		defer cancel()
	}
	rep, err := j.h.Wait(waitCtx)
	select {
	case <-j.h.Done():
		// The outcome is served below: retention may evict the job now.
		j.served.Store(true)
	default:
		// Only the wait expired; the job is still running.
		writeErrStatus(w, http.StatusGatewayTimeout,
			fmt.Sprintf("api: job %d still running: %v", j.id, err), "canceled")
		return j.id
	}
	if err != nil {
		// The job itself settled with an error: map it.
		writeErr(w, err)
		return j.id
	}
	if writeBinaryResult(w, r.Header.Get("Accept"), rep, j.h.ResultAlg()) {
		return j.id
	}
	res := JobResult{ID: j.id, Report: wireReport(rep)}
	if err := extractResult(&res, j.h.ResultAlg()); err != nil {
		writeErr(w, err)
		return j.id
	}
	// One pooled buffer, one Write; the newline is json.Encoder's.
	buf := getBuf()
	defer putBuf(buf)
	body, err := res.AppendJSON(buf.AvailableBuffer())
	if err != nil {
		writeErrStatus(w, http.StatusInternalServerError, "api: encode result: "+err.Error(), "")
		return j.id
	}
	body = append(body, '\n')
	*buf = *bytes.NewBuffer(body) // the pool keeps the storage, grown or not
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	return j.id
}

// writeBinaryResult serves the result as a raw little-endian frame when the
// Accept header asks for one matching the algorithm's payload type, with
// the execution report in the ReportHeader. It reports whether it handled
// the response; JSON stays the default for every other Accept value.
func writeBinaryResult(w http.ResponseWriter, accept string, rep core.Report, alg core.Alg) bool {
	writeHdr := func(contentType string) bool {
		repJSON, err := json.Marshal(wireReport(rep))
		if err != nil {
			return false
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set(ReportHeader, string(repJSON))
		w.WriteHeader(http.StatusOK)
		return true
	}
	switch a := alg.(type) {
	case *mergesort.Sorter:
		if !acceptsType(accept, ContentTypeInt32) || !writeHdr(ContentTypeInt32) {
			return false
		}
		WriteInt32Frame(w, a.Result())
	case *scan.Scanner:
		if !acceptsType(accept, ContentTypeInt64) || !writeHdr(ContentTypeInt64) {
			return false
		}
		WriteInt64Frame(w, a.Result())
	case *dcsum.Summer:
		if !acceptsType(accept, ContentTypeInt64) || !writeHdr(ContentTypeInt64) {
			return false
		}
		WriteInt64Frame(w, []int64{a.Result()})
	default:
		return false
	}
	return true
}

// handleDrain is POST /v1/drain/{device}: gracefully drain one pool device.
// The request context (plus Request-Timeout) bounds only the wait — on
// expiry the drain continues in the background, mirroring
// Server.DrainBackend.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) uint64 {
	dev, err := strconv.Atoi(r.PathValue("device"))
	if err != nil {
		writeErrStatus(w, http.StatusBadRequest, "api: bad device id "+r.PathValue("device"), "bad-param")
		return 0
	}
	timeout, err := ParseTimeout(r.Header.Get(RequestTimeoutHeader))
	if err != nil {
		writeErr(w, err)
		return 0
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := s.pool.DrainBackend(ctx, dev); err != nil {
		if ctx.Err() != nil && !errors.Is(err, dcerr.ErrBadParam) && !errors.Is(err, dcerr.ErrServerClosed) {
			writeErrStatus(w, http.StatusGatewayTimeout,
				fmt.Sprintf("api: drain of device %d still in progress: %v", dev, err), "canceled")
			return 0
		}
		writeErr(w, err)
		return 0
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "drained", "device": dev})
	return 0
}

// handleMetrics is GET /metrics: the registry snapshot as JSON, rendered
// through a pooled scrape buffer so periodic scrapes do not grow the heap.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) uint64 {
	w.Header().Set("Content-Type", "application/json")
	if s.cfg.Metrics == nil {
		w.Write([]byte("{}\n"))
		return 0
	}
	buf := getBuf()
	defer putBuf(buf)
	if err := s.cfg.Metrics.WriteJSON(buf); err != nil {
		writeErrStatus(w, http.StatusInternalServerError, "api: render metrics: "+err.Error(), "")
		return 0
	}
	w.Write(buf.Bytes())
	return 0
}

// handleTrace is GET /debug/trace: the recorder's spans as a Chrome
// trace-event download (chrome://tracing, Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) uint64 {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	s.cfg.Trace.WriteChromeTrace(w)
	return 0
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) uint64 {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeErrStatus(w, http.StatusServiceUnavailable, "draining", "server-closed")
		return 0
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return 0
}
