package server

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/solver"
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

// parseJob builds a job from one upload and its query parameters
// (?timeout=, ?policy=, ?trace=, ?portfolio=, ?deterministic=), and for a
// keyed job consults the result cache once: a hit comes back as the
// entry, and the job then may carry no formula. It does not admit the
// job — admission is the caller's move.
//
// A keyed upload is looked up in the key memo first. A byte-identical
// repeat of an upload keyed before takes its canonical hash from there,
// skipping gunzip, parse and hash; it is decoded and parsed only when
// the result cache has no answer for it.
func (s *Server) parseJob(w http.ResponseWriter, r *http.Request) (*job, *cacheEntry, *httpError) {
	up, herr := s.readUpload(w, r)
	if herr != nil {
		return nil, nil, herr
	}
	j := newJob(nil)
	perr := s.parseParams(j, r.URL.Query())
	// Trace payloads are per-request, so traced solves bypass the cache
	// entirely: no lookup, no fill.
	keyed := perr == nil && s.cfg.CacheSize > 0 && !j.trace
	var digest [sha256.Size]byte
	hash, known := "", false
	if keyed {
		digest = UploadDigest(up.enc, up.wire)
		hash, known = s.uploadKeys.Get(digest)
		if known {
			s.m.uploadKeys("hit").Inc()
		} else {
			s.m.uploadKeys("miss").Inc()
		}
	}
	// The body is checked before the parameters, so a request wrong in
	// both reports the body. A memo hit is a body that passed before.
	if !known {
		if herr := s.loadFormula(j, up); herr != nil {
			return nil, nil, herr
		}
	}
	if perr != nil {
		return nil, nil, perr
	}
	j.enqueued = time.Now() // timings start once the upload is read
	if !keyed {
		return j, nil, nil
	}
	if !known {
		hash = CanonicalHash(j.f)
		s.uploadKeys.Put(digest, hash)
	}
	j.key = cacheVariant(j) + ":" + hash
	if e, ok := s.cacheGet(j.key); ok {
		s.m.cacheEv("hit").Inc()
		s.m.solves(e.policy, "cached").Inc()
		return j, e, nil
	}
	s.m.cacheEv("miss").Inc()
	if j.f == nil {
		// A memo hit without a cached answer: the solve needs the formula.
		if herr := s.loadFormula(j, up); herr != nil {
			return nil, nil, herr
		}
	}
	return j, nil, nil
}

// loadFormula decodes and parses a job's upload, refusing an empty
// formula.
func (s *Server) loadFormula(j *job, up upload) *httpError {
	f, herr := s.decodeFormula(up)
	if herr != nil {
		return herr
	}
	if len(f.Clauses) == 0 && f.NumVars == 0 {
		return badRequest("empty formula: body contained no DIMACS clauses")
	}
	j.f = f
	return nil
}

// solveTimeout is the one rule for a client's solve timeout, ?timeout=
// or a session step's "timeout": a positive Go duration, clamped to
// Config.MaxTimeout, which is also the default when v is empty.
func (s *Server) solveTimeout(v string) (time.Duration, *httpError) {
	if v == "" {
		return s.cfg.MaxTimeout, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, badRequest("bad timeout %q: want a positive Go duration like 5s or 500ms", v)
	}
	return min(d, s.cfg.MaxTimeout), nil
}

// parseParams sets a job's request parameters from its query string.
func (s *Server) parseParams(j *job, q url.Values) *httpError {
	var herr *httpError
	if j.timeout, herr = s.solveTimeout(q.Get("timeout")); herr != nil {
		return herr
	}
	switch v := q.Get("policy"); v {
	case "", "auto":
		// The selector (or the default policy) decides.
	default:
		pol, err := deletion.ByName(v)
		if err != nil {
			return badRequest("%v", err)
		}
		j.policy = pol
	}
	switch v := q.Get("trace"); v {
	case "", "0", "false":
	case "1", "true":
		j.trace = true
	default:
		return badRequest("bad trace %q: want 1 or 0", v)
	}
	if v := q.Get("portfolio"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPortfolioWorkers {
			return badRequest("bad portfolio %q: want a worker count in 1..%d", v, maxPortfolioWorkers)
		}
		if j.policy != nil {
			return badRequest("?policy= cannot be combined with ?portfolio= (workers carry their own policies)")
		}
		j.portfolio = n
	}
	switch v := q.Get("deterministic"); v {
	case "", "0", "false":
	case "1", "true":
		if j.portfolio == 0 {
			return badRequest("?deterministic= requires ?portfolio=")
		}
		j.deterministic = true
	default:
		return badRequest("bad deterministic %q: want 1 or 0", v)
	}
	return nil
}

// cacheVariant names the answer a keyed job asks for; it prefixes the
// canonical hash in the job's cache key. A request that pins ?policy=
// must not be served a result computed under a different policy (the
// stats and policy fields would lie). Portfolio solves cache under their
// own variant: the response schema (portfolio block) and, in
// free-running mode, the answer's provenance differ per worker count. A
// deterministic answer is the fixed ensemble's for any worker count, so
// every ?portfolio=N&deterministic=1 shares one variant.
func cacheVariant(j *job) string {
	switch {
	case j.portfolio > 0 && j.deterministic:
		return "portfolio-det"
	case j.portfolio > 0:
		return "portfolio" + strconv.Itoa(j.portfolio)
	case j.policy != nil:
		return j.policy.Name()
	default:
		return "auto"
	}
}

// maxPortfolioWorkers caps ?portfolio=: a request cannot demand more
// worker goroutines than a small multiple of the machine's cores.
const maxPortfolioWorkers = 16

// readFormula reads, decodes and parses one DIMACS upload for a session
// create, which accepts an empty formula as a valid start for
// incremental adds.
func (s *Server) readFormula(w http.ResponseWriter, r *http.Request) (*cnf.Formula, *httpError) {
	up, herr := s.readUpload(w, r)
	if herr != nil {
		return nil, herr
	}
	return s.decodeFormula(up)
}

// upload is one request body as it came off the wire.
type upload struct {
	enc  string // lower-cased Content-Encoding, one the service decodes
	wire []byte
}

// readUpload buffers an upload's wire bytes (ReadBody, sized from the
// request's Content-Length), enforcing Config.MaxBodyBytes (413), once its
// Content-Encoding is known to be one the service decodes (415).
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request) (upload, *httpError) {
	enc, err := uploadEncoding(r.Header.Get("Content-Encoding"))
	if err != nil {
		return upload{}, &httpError{code: http.StatusUnsupportedMediaType, msg: err.Error()}
	}
	wire, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		if herr := s.tooLarge(err); herr != nil {
			return upload{}, herr
		}
		return upload{}, badRequest("read body: %v", err)
	}
	return upload{enc: enc, wire: wire}, nil
}

// tooLarge maps a read past Config.MaxBodyBytes (an upload or a session
// step) to its 413, and any other error to nil.
func (s *Server) tooLarge(err error) *httpError {
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		return nil
	}
	return &httpError{code: http.StatusRequestEntityTooLarge,
		msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)}
}

// decodeFormula decodes (DecodeUpload) and parses a buffered upload,
// mapping a decompressed size past Config.MaxBodyBytes to 413 and every
// other failure to 400.
func (s *Server) decodeFormula(up upload) (*cnf.Formula, *httpError) {
	text, err := DecodeUpload(up.wire, up.enc, s.cfg.MaxBodyBytes)
	switch {
	case errors.Is(err, ErrBodyTooLarge):
		return nil, &httpError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("decompressed body exceeds %d bytes", s.cfg.MaxBodyBytes)}
	case err != nil:
		return nil, badRequest("%v", err)
	}
	f, err := cnf.Parse(text)
	if err != nil {
		return nil, badRequest("parse DIMACS: %v", err)
	}
	if herr := s.tooManyVars(f.NumVars); herr != nil {
		return nil, herr
	}
	return f, nil
}

// tooManyVars maps a variable count whose footprint charge alone
// (solver.VarFootprint) passes Config.SessionMaxMem to its 413, and any
// other count to nil. A solver allocates per variable as it is built, and
// a few bytes of DIMACS can declare millions, so every count is checked
// before a solver sees it.
func (s *Server) tooManyVars(n int) *httpError {
	most := s.cfg.SessionMaxMem / solver.VarFootprint(1)
	if int64(n) <= most {
		return nil
	}
	return &httpError{code: http.StatusRequestEntityTooLarge,
		msg: fmt.Sprintf("%d variables exceed the solver memory cap: at most %d fit in %d bytes", n, most, s.cfg.SessionMaxMem)}
}

// Upload decoding failures.
var (
	// ErrUnsupportedEncoding rejects a Content-Encoding other than gzip or
	// identity.
	ErrUnsupportedEncoding = errors.New("unsupported Content-Encoding")
	// ErrBodyTooLarge fails a gzip upload that expands past its size cap.
	ErrBodyTooLarge = errors.New("decompressed body exceeds the size cap")
)

// uploadEncoding lower-cases a Content-Encoding and fails with
// ErrUnsupportedEncoding unless it names gzip or identity ("" or
// "identity").
func uploadEncoding(contentEncoding string) (string, error) {
	switch enc := strings.ToLower(contentEncoding); enc {
	case "", "identity", "gzip":
		return enc, nil
	default:
		return "", fmt.Errorf("%w %q: want gzip or identity", ErrUnsupportedEncoding, enc)
	}
}

// DecodeBody wraps an upload's wire bytes in the decoder its
// Content-Encoding names: identity ("" or "identity") returns src itself,
// gzip a decompressing reader that fails with ErrBodyTooLarge once the
// decoded stream passes max bytes, so a gzip bomb cannot expand past the
// cap. Any other encoding fails with ErrUnsupportedEncoding.
func DecodeBody(src io.Reader, contentEncoding string, max int64) (io.Reader, error) {
	enc, err := uploadEncoding(contentEncoding)
	if err != nil {
		return nil, err
	}
	if enc != "gzip" {
		return src, nil
	}
	gz, err := gzip.NewReader(src)
	if err != nil {
		return nil, fmt.Errorf("bad gzip body: %w", err)
	}
	return &capReader{r: gz, left: max}, nil
}

// DecodeUpload returns the DIMACS text of a buffered upload: body itself
// for identity, its decompression through DecodeBody for gzip, failing
// with ErrBodyTooLarge past max decoded bytes, a "read body" error on a
// corrupt stream, and DecodeBody's errors otherwise. Replicas and the
// cluster coordinator both decode through it, so the routing key and the
// replica's cache key come from the same bytes. The caller bounds the
// wire bytes.
func DecodeUpload(body []byte, contentEncoding string, max int64) ([]byte, error) {
	raw := bytes.NewReader(body)
	src, err := DecodeBody(raw, contentEncoding, max)
	if err != nil {
		return nil, err
	}
	if src == io.Reader(raw) {
		return body, nil
	}
	text, err := io.ReadAll(src)
	switch {
	case err == nil:
		return text, nil
	case errors.Is(err, ErrBodyTooLarge):
		return nil, err
	default:
		return nil, fmt.Errorf("read body: %w", err)
	}
}

// firstReserve bounds what ReadBody reserves on a declared length before
// any byte has arrived. 256 KiB holds every body the benchmark workloads
// send in one reservation: a hot-cluster gzip upload is about 67 KB and
// its answer about 17 KB, a cold identity upload 9 KB and a session
// create 3 KB. A declared length is only the sender's word, so a larger
// one buys no more than this; the rest of the buffer grows only as bytes
// arrive. The reservation is made before the first byte, and
// neuroselect-serve sets no read timeout, so a connection that declares a
// large body and then sends nothing holds this much at each tier for as
// long as it stays open.
const firstReserve = 256 << 10

// ReadBody reads r to EOF and returns what io.ReadAll(r) returns, bytes
// and error alike (an empty body is a non-nil empty slice). size is the
// length the sender declared, such as a Content-Length, or negative when
// none was. The buffer is reserved once at min(size, firstReserve)+1
// bytes, the extra byte taking the read that finds EOF, so a body as long
// as declared is read without regrowing its buffer. With no declared
// length it starts at 512 bytes, as io.ReadAll does, and reads exactly as
// io.ReadAll does.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	reserve := int64(511)
	if size >= 0 {
		reserve = min(size, firstReserve)
	}
	b := make([]byte, 0, reserve+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// UploadDigest identifies an upload by its exact wire form: SHA-256 over
// the lower-cased Content-Encoding, a zero byte (no header value holds
// one) and the body. Both tiers key their memo of finished ingests by it,
// so only a byte-identical repeat under the same encoding finds an entry;
// a body re-compressed with a new gzip header is a new upload.
func UploadDigest(contentEncoding string, body []byte) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, strings.ToLower(contentEncoding))
	h.Write([]byte{0})
	h.Write(body)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
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
	j, hit, herr := s.parseJob(w, r)
	if herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}
	if hit != nil {
		w.Header().Set("X-Cache", "hit")
		writeAnswer(w, hit.body)
		return
	}
	j.reqID = RequestIDFrom(r.Context())
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
	writeAnswer(w, body)
}

// writeAnswer writes a finished /v1/solve answer under a Content-Length,
// so the response is not chunked and a coordinator relaying it reads it
// into one buffer of that size (ReadBody).
func writeAnswer(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
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
	j, hit, herr := s.parseJob(w, r)
	if herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}
	j.reqID = RequestIDFrom(r.Context())
	// Every async job gets its event stream before it becomes findable:
	// a subscriber may connect the moment the id is out.
	s.initJobStream(j)
	if hit != nil {
		j.cached = true
		j.succeed(hit.body)
		s.jobs.Add(j)
		s.endJob(j)
		writeJSON(w, http.StatusOK, j.view())
		return
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
		// The client never learns the id, so the store forgets it rather
		// than keeping it in the done history; the stream still ends, so a
		// subscriber that raced in sees a clean end, not a silent hang.
		s.jobs.Remove(id)
		j.fail(http.StatusTooManyRequests, "queue full: retry later")
		s.endJob(j)
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
// during graceful shutdown so load balancers stop routing here.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
