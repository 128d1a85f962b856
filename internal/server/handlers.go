package server

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
)

// Handler returns the service mux:
//
//	POST   /v1/solve               synchronous solve (blocks until the result)
//	POST   /v1/jobs                asynchronous solve (returns a job id)
//	GET    /v1/jobs/{id}           poll an async job
//	GET    /v1/jobs/{id}/events    live trace-event stream (SSE; see events.go)
//	POST   /v1/sessions            create a warm incremental session
//	POST   /v1/sessions/{id}/solve incremental step on a session
//	GET    /v1/sessions/{id}       session info
//	DELETE /v1/sessions/{id}       close a session (parks the warm solver)
//	GET    /healthz                liveness (503 while draining)
//
// Every request flows through the correlation-id middleware (X-Request-ID
// generated or echoed) and, when Config.AccessLog is set, the structured
// access log. Mount it on an http.Server; metrics exposition lives on the
// registry's own listener (obs.Serve), keeping the data plane and the
// telemetry plane on separate ports.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.instrument("solve", s.handleSolve))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("poll", s.handlePoll))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleJobEvents))
	mux.HandleFunc("POST /v1/sessions", s.instrument("session-create", s.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/{id}/solve", s.instrument("session-solve", s.handleSessionSolve))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("session-info", s.handleSessionInfo))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("session-delete", s.handleSessionDelete))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	var h http.Handler = s.logAccess(mux)
	if s.cfg.BackendName != "" {
		// Backend mode: every response names the replica that produced it,
		// so clients behind a coordinator can observe routing stickiness
		// and operators can attribute a response to a process.
		name := s.cfg.BackendName
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Backend", name)
			inner.ServeHTTP(w, r)
		})
	}
	return WithRequestID(h)
}

// statusRecorder captures the response code for the request counters.
// Unwrap lets http.ResponseController reach the real writer's Flusher,
// which the SSE endpoint depends on.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with the per-endpoint latency histogram and
// request counter.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.m.reqSec(endpoint).Observe(time.Since(start).Seconds())
		s.m.requests(endpoint, strconv.Itoa(rec.code)).Inc()
	}
}

// httpError is a handler-layer failure carrying its status code.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// writeJSON emits a marshaled 200 response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// parseJob builds a job from one upload (readFormula) and its query
// parameters (?timeout=, ?policy=, ?trace=). It does not admit the job —
// admission is the caller's move so the cache can short-circuit first.
func (s *Server) parseJob(w http.ResponseWriter, r *http.Request) (*job, *httpError) {
	f, herr := s.readFormula(w, r)
	if herr != nil {
		return nil, herr
	}
	if len(f.Clauses) == 0 && f.NumVars == 0 {
		return nil, badRequest("empty formula: body contained no DIMACS clauses")
	}
	j := newJob(f)

	q := r.URL.Query()
	j.timeout = s.cfg.MaxTimeout
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, badRequest("bad timeout %q: want a positive Go duration like 5s or 500ms", v)
		}
		if d < j.timeout {
			j.timeout = d
		}
	}
	switch v := q.Get("policy"); v {
	case "", "auto":
		// The selector (or the default policy) decides.
	default:
		pol, err := deletion.ByName(v)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		j.policy = pol
	}
	switch v := q.Get("trace"); v {
	case "", "0", "false":
	case "1", "true":
		j.trace = true
	default:
		return nil, badRequest("bad trace %q: want 1 or 0", v)
	}
	if v := q.Get("portfolio"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPortfolioWorkers {
			return nil, badRequest("bad portfolio %q: want a worker count in 1..%d", v, maxPortfolioWorkers)
		}
		if j.policy != nil {
			return nil, badRequest("?policy= cannot be combined with ?portfolio= (workers carry their own policies)")
		}
		j.portfolio = n
	}
	switch v := q.Get("deterministic"); v {
	case "", "0", "false":
	case "1", "true":
		if j.portfolio == 0 {
			return nil, badRequest("?deterministic= requires ?portfolio=")
		}
		j.deterministic = true
	default:
		return nil, badRequest("bad deterministic %q: want 1 or 0", v)
	}
	// Trace payloads are per-request, so traced solves bypass the cache
	// entirely: no lookup, no fill. The key carries the policy variant:
	// a request that pins ?policy= must not be served a result computed
	// under a different policy (the stats and policy fields would lie).
	if s.cfg.CacheSize > 0 && !j.trace {
		variant := "auto"
		if j.policy != nil {
			variant = j.policy.Name()
		}
		// Portfolio solves cache under their own variant: the response
		// schema (portfolio block) and, in free-running mode, the answer's
		// provenance differ per worker count and mode.
		if j.portfolio > 0 {
			variant = "portfolio" + strconv.Itoa(j.portfolio)
			if j.deterministic {
				variant += "-det"
			}
		}
		j.key = variant + ":" + CanonicalHash(f)
	}
	return j, nil
}

// maxPortfolioWorkers caps ?portfolio=: a request cannot demand more
// worker goroutines than a small multiple of the machine's cores.
const maxPortfolioWorkers = 16

// readFormula reads and parses one DIMACS upload. One-shot jobs and
// session creation share it; only parseJob refuses an empty formula,
// because an empty session base is a valid start for incremental adds.
func (s *Server) readFormula(w http.ResponseWriter, r *http.Request) (*cnf.Formula, *httpError) {
	body, herr := s.readBody(w, r)
	if herr != nil {
		return nil, herr
	}
	f, err := cnf.Parse(body)
	if err != nil {
		return nil, badRequest("parse DIMACS: %v", err)
	}
	return f, nil
}

// readBody returns the decoded upload (DecodeBody), enforcing
// Config.MaxBodyBytes on both the wire bytes and the decompressed size,
// and maps failures to 413 (too large), 415 (unsupported encoding) or 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *httpError) {
	max := s.cfg.MaxBodyBytes
	src, err := DecodeBody(http.MaxBytesReader(w, r.Body, max), r.Header.Get("Content-Encoding"), max)
	if errors.Is(err, ErrUnsupportedEncoding) {
		return nil, &httpError{code: http.StatusUnsupportedMediaType, msg: err.Error()}
	}
	if err != nil {
		return nil, badRequest("%v", err)
	}
	body, err := io.ReadAll(src)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return body, nil
	case errors.As(err, &tooBig):
		return nil, &httpError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("body exceeds %d bytes", max)}
	case errors.Is(err, ErrBodyTooLarge):
		return nil, &httpError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("decompressed body exceeds %d bytes", max)}
	default:
		return nil, badRequest("read body: %v", err)
	}
}

// Upload decoding failures.
var (
	// ErrUnsupportedEncoding rejects a Content-Encoding other than gzip or
	// identity.
	ErrUnsupportedEncoding = errors.New("unsupported Content-Encoding")
	// ErrBodyTooLarge fails a gzip upload that expands past its size cap.
	ErrBodyTooLarge = errors.New("decompressed body exceeds the size cap")
)

// DecodeBody wraps an upload's wire bytes in the decoder its
// Content-Encoding names: identity ("" or "identity") returns src itself,
// gzip a decompressing reader that fails with ErrBodyTooLarge once the
// decoded stream passes max bytes, so a gzip bomb cannot expand past the
// cap. Any other encoding fails with ErrUnsupportedEncoding. Replicas
// and the cluster coordinator both decode through it, so the routing key
// and the replica's cache key come from the same bytes.
func DecodeBody(src io.Reader, contentEncoding string, max int64) (io.Reader, error) {
	switch enc := strings.ToLower(contentEncoding); enc {
	case "", "identity":
		return src, nil
	case "gzip":
		gz, err := gzip.NewReader(src)
		if err != nil {
			return nil, fmt.Errorf("bad gzip body: %w", err)
		}
		return &capReader{r: gz, left: max}, nil
	default:
		return nil, fmt.Errorf("%w %q: want gzip or identity", ErrUnsupportedEncoding, enc)
	}
}

// capReader passes at most left+1 bytes of r, failing with ErrBodyTooLarge
// once more than left have passed.
type capReader struct {
	r    io.Reader
	left int64
}

func (c *capReader) Read(p []byte) (int, error) {
	if int64(len(p)) > c.left+1 {
		p = p[:c.left+1]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	if c.left < 0 {
		return n, ErrBodyTooLarge
	}
	return n, err
}

// refuseIfDraining sheds new work during graceful shutdown. Retry-After
// comes from the same live backlog estimate the 429 shed path uses — a
// draining server with a deep queue should not invite clients back in one
// second.
func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	if !s.Draining() {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusServiceUnavailable, "server is draining")
	return true
}

// admitSession takes a pending slot for a session request, so Drain waits
// for it, or answers 503 once the server is draining. The check and the
// slot share the admission lock with Drain's switch to draining.
func (s *Server) admitSession(w http.ResponseWriter) bool {
	s.admitMu.RLock()
	ok := !s.draining.Load()
	if ok {
		s.pending.Add(1)
	}
	s.admitMu.RUnlock()
	if !ok {
		s.refuseIfDraining(w)
	}
	return ok
}

// handleSolve is POST /v1/solve: parse, consult the cache, join or lead
// the singleflight for the instance, admit onto the worker pool, block
// for the result. The X-Cache header says whether the body came from the
// cache ("hit") or a fresh solve ("miss"); traced requests report
// "bypass". A request that shared an identical in-flight solve also
// carries X-Dedup: shared.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	j, herr := s.parseJob(w, r)
	if herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}
	j.reqID = RequestIDFrom(r.Context())
	if j.key != "" {
		if e, ok := s.cacheGet(j.key); ok {
			s.m.cacheEv("hit").Inc()
			s.m.solves(e.policy, "cached").Inc()
			w.Header().Set("X-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(e.body)
			return
		}
		s.m.cacheEv("miss").Inc()
	}
	if j.key != "" {
		// Keyed solves run under the server's lifetime, not the request's:
		// the result may be shared with concurrent identical requests, and
		// one departing client must not cancel work other waiters ride on.
		j.ctx = s.baseCtx
		if s.joinFlight(j) != nil {
			s.m.dedup("solve").Inc()
		} else if !s.enqueue(j) {
			s.abortFlight(j, http.StatusTooManyRequests, "queue full: retry later")
			s.shedResponse(w)
			return
		}
	} else {
		j.ctx = r.Context()
		if !s.enqueue(j) {
			s.shedResponse(w)
			return
		}
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone. An unkeyed job's worker sees the canceled context
		// and discards it; a keyed job runs on (other waiters may share
		// it). Either way nothing useful can be written here.
		return
	}
	_, body, errCode, errMsg := j.snapshot()
	if errCode != 0 {
		writeError(w, errCode, errMsg)
		return
	}
	if j.shared {
		w.Header().Set("X-Dedup", "shared")
		if lr := j.leaderReqID(); lr != "" {
			w.Header().Set("X-Leader-Request-ID", lr)
		}
	}
	if j.trace {
		w.Header().Set("X-Cache", "bypass")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// shedResponse writes the 429 for a full admission queue. Retry-After is
// derived from the live backlog and the smoothed solve time, jittered so
// shed clients do not all come back at once.
func (s *Server) shedResponse(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("queue full (depth %d): retry later", cap(s.queue)))
}

// handleSubmit is POST /v1/jobs: parse, consult the cache, journal,
// join or lead the singleflight, admit, return a job id immediately. A
// cache hit completes the job before the response is written, so the
// first poll already carries the result; a submit identical to an
// in-flight solve attaches to it (X-Dedup: shared) and completes when
// the leader does.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	j, herr := s.parseJob(w, r)
	if herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}
	j.reqID = RequestIDFrom(r.Context())
	// Every async job gets its event stream before it becomes findable:
	// a subscriber may connect the moment the id is out.
	s.initJobStream(j)
	if j.key != "" {
		if e, ok := s.cacheGet(j.key); ok {
			s.m.cacheEv("hit").Inc()
			s.m.solves(e.policy, "cached").Inc()
			j.cached = true
			s.jobs.Add(j)
			j.completeFromCache(e.body)
			s.jobs.NoteDone(j)
			writeJSON(w, http.StatusOK, j.view())
			return
		}
		s.m.cacheEv("miss").Inc()
	}
	// Async solves outlive the submit request: they run under the server's
	// base context (canceled only by Close), bounded by the job timeout.
	j.ctx = s.baseCtx
	id := s.jobs.Add(j)
	// Journal before the 202: once the client holds an id, a crash must
	// not lose the job.
	s.journalSubmit(j)
	if j.key != "" {
		if s.joinFlight(j) != nil {
			s.m.dedup("jobs").Inc()
			w.Header().Set("X-Dedup", "shared")
			writeJSON(w, http.StatusAccepted, jobView{ID: id, Status: JobQueued, Shared: true, ReqID: j.reqID})
			return
		}
	}
	if !s.enqueue(j) {
		s.abortFlight(j, http.StatusTooManyRequests, "queue full: retry later")
		s.journalDone(j, "shed")
		// Terminate the stream before the id is forgotten so a subscriber
		// that raced in sees a clean end, not a silent hang.
		j.fail(http.StatusTooManyRequests, "queue full: retry later")
		j.finish()
		s.jobs.Remove(id)
		s.shedResponse(w)
		return
	}
	writeJSON(w, http.StatusAccepted, jobView{ID: id, Status: JobQueued, ReqID: j.reqID})
}

// handlePoll is GET /v1/jobs/{id}. The body is j.view(): state, outcome,
// correlation ids, and — while the solve runs — the live progress object
// fed by the solver's conflict-window rollups.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleHealth is GET /healthz: 200 "ok" while serving, 503 "draining"
// during graceful shutdown so load balancers stop routing here. The
// second line reports the inference circuit-breaker state
// (breaker=closed|half-open|open) — an open breaker means the service is
// up but degraded to the default policy.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		fmt.Fprintf(w, "breaker=%s\n", s.brk.State())
		return
	}
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "breaker=%s\n", s.brk.State())
}
