// Package server turns the solver into a network service: an HTTP JSON API
// that accepts DIMACS CNF uploads, routes them through the portfolio
// selector onto a bounded solver worker pool, and answers with the solve
// outcome, the chosen policy, and timings.
//
// The request path is built from the pieces the repo already has:
// solves run under solver.SolveContext (deadline-aware, panic-contained),
// policy selection is a portfolio.Deferred choice made at the solve's
// first reduction (model-driven with degrade-to-default fallbacks), the
// worker pool follows the
// internal/sweep feeder pattern (bounded jobs channel, per-job panic
// containment, drain-on-shutdown with no goroutine leaks), and every
// stage reports into an obs.Registry.
//
// Service properties:
//
//   - Admission control: a fixed-depth queue in front of the pool; an
//     enqueue that would block is shed immediately with 429 and a
//     Retry-After hint derived from the live backlog (jittered so
//     synchronized clients do not return in lockstep), so latency stays
//     bounded under overload.
//   - Result cache: an LRU keyed by CanonicalHash short-circuits repeated
//     instances — the one-time solving (and inference) cost is amortized
//     across identical uploads, the NeuroBack-style amortization argument
//     applied to whole results. A memo from an upload's wire digest to
//     its hash keys a byte-identical repeat without gunzip, parse or hash.
//   - Singleflight dedup: concurrent identical solves (same canonical
//     hash and policy variant) share one worker; followers receive the
//     leader's result with X-Dedup: shared (see flight.go).
//   - Durability: with Config.JournalDir set, every async job is recorded
//     in a write-ahead job journal before its 202 is written; a crashed
//     or SIGKILLed server replays pending jobs on restart and re-admits
//     them through the normal queue (see journal.go).
//   - Retries: transient failures (contained solver panics,
//     faultpoint-injected errors) re-admit async jobs with jittered
//     exponential backoff up to Config.MaxRetries attempts.
//   - Circuit breaker: consecutive selector-inference failures (errors or
//     panics) trip the breaker; while open, requests skip inference and
//     run DefaultPolicy outright, and a half-open probe re-tests the model
//     after Config.BreakerCooldown (see breaker.go).
//   - Deadlines: every request runs under a per-request timeout
//     (?timeout=, clamped by Config.MaxTimeout) and returns UNKNOWN with
//     a stop reason rather than holding a worker.
//   - Async jobs: POST /v1/jobs enqueues and returns a job id to poll, so
//     clients are not held open for long solves; SIGTERM-style shutdown
//     drains queued and in-flight jobs before the listener closes.
//
// Failure domains are isolated: journal I/O degrades durability but never
// availability, cache faults degrade to misses, a broken model degrades
// to the default policy, and a poisoned instance is contained to its own
// worker iteration. The faultpoint sites threaded through these paths
// (faultpoint.Server*) drive the chaos harness in chaos_test.go.
//
// The HTTP contract (endpoints, schemas, error codes, metric names) is
// documented in API.md at the repo root.
package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/lru"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

// Config sizes a Server. The zero value is usable: NumCPU workers, a
// 64-deep queue, a 30s timeout ceiling, a 256-entry cache, no journal, no
// retries.
type Config struct {
	// Workers bounds the solver pool (<=0 → runtime.NumCPU()).
	Workers int
	// QueueDepth caps the admission queue; a full queue sheds new
	// requests with 429 (<=0 → 64).
	QueueDepth int
	// MaxTimeout clamps the per-request ?timeout= and is the default when
	// the client sends none (<=0 → 30s). Every solve runs under some
	// deadline: a worker is never held indefinitely.
	MaxTimeout time.Duration
	// CacheSize is the result-cache capacity in entries (0 → 256;
	// negative disables caching). It also bounds the upload-key memo,
	// which a negative value disables with the cache.
	CacheSize int
	// MaxBodyBytes caps the decompressed request body (<=0 → 64 MiB).
	MaxBodyBytes int64
	// JobHistory caps retained completed async jobs; the oldest finished
	// job is forgotten first (<=0 → 1024).
	JobHistory int
	// JournalDir, when non-empty, enables the write-ahead job journal:
	// async jobs are fsync'd there before they are acknowledged, and New
	// replays jobs left pending by a crash. Empty disables journaling.
	// The file is compacted in place once 256 obsolete records accumulate.
	JournalDir string
	// MaxRetries is how many times a transiently-failed async job
	// (contained panic, injected fault) is re-admitted before its failure
	// becomes terminal (0 = no retries).
	MaxRetries int
	// RetryBase is the backoff unit: attempt n waits a jittered
	// RetryBase×2^(n-1) before re-admission (<=0 → 100ms).
	RetryBase time.Duration
	// BreakerThreshold is how many consecutive inference failures open
	// the circuit breaker (<=0 → 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe inference (<=0 → 10s).
	BreakerCooldown time.Duration
	// SessionMax bounds concurrently-live warm sessions (and the parked-
	// solver pool behind them); creating one past the bound evicts the
	// least-recently-used idle session (<=0 → 64).
	SessionMax int
	// SessionTTL expires sessions (and parked pool solvers) idle this long
	// (<=0 → 5m).
	SessionTTL time.Duration
	// SessionMaxMem caps one session solver's estimated footprint in
	// bytes; a solve that grows past it closes the session (<=0 → 256 MiB).
	SessionMaxMem int64
	// EventRing bounds each async job's replayable trace-event history:
	// the ring buffer behind GET /v1/jobs/{id}/events that late
	// subscribers and Last-Event-ID resumes read (<=0 → 256).
	EventRing int
	// EventQueue bounds one SSE subscriber's pending-event queue. A
	// subscriber that falls further behind has events dropped and counted
	// — a slow client never backpressures the solver (<=0 → 256).
	EventQueue int
	// SSEHeartbeat is the idle interval between `:` keep-alive comments on
	// an event stream (<=0 → 15s).
	SSEHeartbeat time.Duration
	// AccessLog, when non-nil, receives one structured line per HTTP
	// request: method, path, status, bytes, duration, request id, and the
	// cache/dedup outcome. Under flood the log is sampled: past 200 lines
	// in one second, only every 100th request in that second is logged,
	// flagged with sampled=true.
	AccessLog *slog.Logger
	// BackendName, when non-empty, runs the server in cluster backend
	// mode: every response carries an X-Backend header naming this
	// replica, and job/session ids are prefixed "<name>-" so they are
	// unique across the cluster (the coordinator routes by id prefix-
	// agnostic maps, but operators and logs need unambiguous ids).
	BackendName string
	// Selector, when non-nil, picks the deletion policy per instance via
	// the NeuroSelect model (requests may still pin one with ?policy=).
	// Nil servers solve everything under the default policy.
	Selector *portfolio.Selector
	// Registry receives the service metrics (neuroselect_server_*); nil
	// uses a private registry so instrumentation is unconditional.
	Registry *obs.Registry
}

// Server is a running solving service: worker pool, admission queue,
// result cache, async job store, job journal, singleflight table, and
// inference breaker. Create with New, mount Handler on an http.Server,
// and stop with Drain (graceful) or Close (abort).
type Server struct {
	cfg   Config
	queue chan *job
	cache *resultCache
	jobs  *jobStore
	jnl   *journal // nil when journaling is disabled
	brk   *breaker

	// uploadKeys memoizes finished ingests: an upload's wire digest
	// (UploadDigest) → the formula's CanonicalHash, sized like the cache.
	uploadKeys *lru.Cache[[sha256.Size]byte, string]

	sessions *sessionTable // warm incremental sessions (see sessions.go)
	pool     *solverPool   // parked warm solvers keyed by base-formula hash

	flMu sync.Mutex // guards fl and every job's followers slice
	fl   flightTable

	baseCtx context.Context // parent of every async solve; canceled by Close
	cancel  context.CancelFunc
	wg      sync.WaitGroup // worker goroutines
	pending sync.WaitGroup // jobs accepted but not yet finished

	admitMu  sync.RWMutex // excludes enqueue sends from the queue close
	draining atomic.Bool
	closed   atomic.Bool

	solveEWMA atomic.Uint64 // float64 bits: smoothed solve seconds, feeds Retry-After

	alog *accessLogger // nil when access logging is off

	m serverMetrics
}

// serverMetrics is the service's obs instrumentation. All series live
// under the neuroselect_server_* namespace documented in API.md.
type serverMetrics struct {
	reg        *obs.Registry
	reqSec     func(endpoint string) *obs.Histogram
	requests   func(endpoint, code string) *obs.Counter
	queueWait  *obs.Histogram
	shed       *obs.Counter
	cacheEv    func(event string) *obs.Counter
	uploadKeys func(event string) *obs.Counter
	solves     func(policy, status string) *obs.Counter
	inflight   *obs.Gauge
	dedup      func(path string) *obs.Counter
	retries    *obs.Counter
	replayed   *obs.Counter
	journalErr func(op string) *obs.Counter
	inference  func(outcome string) *obs.Counter
	breakerTo  func(state string) *obs.Counter
	sessionEv  func(event string) *obs.Counter
	sessionSec func(mode string) *obs.Histogram
	streamSubs *obs.Gauge
	streamEv   func(outcome string) *obs.Counter
}

func newServerMetrics(reg *obs.Registry, s *Server) serverMetrics {
	m := serverMetrics{reg: reg}
	m.reqSec = func(endpoint string) *obs.Histogram {
		return reg.Histogram("neuroselect_server_request_seconds",
			"HTTP request latency by endpoint.", nil, obs.Labels{"endpoint": endpoint})
	}
	m.requests = func(endpoint, code string) *obs.Counter {
		return reg.Counter("neuroselect_server_requests_total",
			"HTTP requests by endpoint and status code.", obs.Labels{"endpoint": endpoint, "code": code})
	}
	m.queueWait = reg.Histogram("neuroselect_server_queue_wait_seconds",
		"Time an accepted job spent in the admission queue before a worker picked it up.", nil, nil)
	m.shed = reg.Counter("neuroselect_server_shed_total",
		"Requests rejected with 429 because the admission queue was full.", nil)
	m.cacheEv = func(event string) *obs.Counter {
		return reg.Counter("neuroselect_server_cache_events_total",
			"Result-cache activity by event (hit, miss, evict).", obs.Labels{"event": event})
	}
	m.uploadKeys = func(event string) *obs.Counter {
		return reg.Counter("neuroselect_server_upload_keys_total",
			"Upload-key memo lookups by event: hit (a byte-identical repeat keyed without decoding) or miss.",
			obs.Labels{"event": event})
	}
	m.solves = func(policy, status string) *obs.Counter {
		return reg.Counter("neuroselect_server_solves_total",
			"Completed solves by deletion policy and outcome.", obs.Labels{"policy": policy, "status": status})
	}
	m.inflight = reg.Gauge("neuroselect_server_inflight_solves",
		"Jobs currently being solved by a worker.", nil)
	m.dedup = func(path string) *obs.Counter {
		return reg.Counter("neuroselect_server_dedup_total",
			"Requests that shared an identical in-flight solve instead of running their own (by path: solve, jobs, replay).",
			obs.Labels{"path": path})
	}
	m.retries = reg.Counter("neuroselect_server_retries_total",
		"Transiently-failed async jobs re-admitted with backoff.", nil)
	m.replayed = reg.Counter("neuroselect_server_journal_replayed_total",
		"Pending async jobs re-admitted from the job journal at startup.", nil)
	m.journalErr = func(op string) *obs.Counter {
		return reg.Counter("neuroselect_server_journal_errors_total",
			"Job-journal I/O failures by operation (append, replay, compact).", obs.Labels{"op": op})
	}
	m.inference = func(outcome string) *obs.Counter {
		return reg.Counter("neuroselect_server_inference_total",
			"Selector-inference attempts by outcome (ok, failure, breaker-open).", obs.Labels{"outcome": outcome})
	}
	m.breakerTo = func(state string) *obs.Counter {
		return reg.Counter("neuroselect_server_breaker_transitions_total",
			"Inference circuit-breaker transitions by new state.", obs.Labels{"to": state})
	}
	reg.GaugeFunc("neuroselect_server_queue_depth",
		"Jobs waiting in the admission queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("neuroselect_server_queue_capacity",
		"Admission-queue capacity (the 429 shedding threshold).", nil,
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("neuroselect_server_breaker_state",
		"Inference circuit-breaker state (0 closed, 1 half-open, 2 open).", nil,
		func() float64 { return float64(s.brk.State()) })
	m.sessionEv = func(event string) *obs.Counter {
		return reg.Counter("neuroselect_server_session_events_total",
			"Warm-session activity by event (create, close, hit, miss, park, drop, evict, expire, memcap).",
			obs.Labels{"event": event})
	}
	m.sessionSec = func(mode string) *obs.Histogram {
		return reg.Histogram("neuroselect_server_session_solve_seconds",
			"Session operation latency by mode: create (build or pool fetch) vs incremental (one warm solve).",
			nil, obs.Labels{"mode": mode})
	}
	reg.GaugeFunc("neuroselect_server_sessions_active",
		"Live warm sessions.", nil,
		func() float64 { return float64(s.sessions.Len()) })
	reg.GaugeFunc("neuroselect_server_session_pool_size",
		"Parked warm solvers awaiting reuse.", nil,
		func() float64 { return float64(s.pool.Len()) })
	m.streamSubs = reg.Gauge("neuroselect_server_event_stream_subscribers",
		"Open SSE event-stream subscriptions (GET /v1/jobs/{id}/events).", nil)
	m.streamEv = func(outcome string) *obs.Counter {
		return reg.Counter("neuroselect_server_event_stream_events_total",
			"SSE stream events by outcome: sent (written to a client) or dropped (a slow subscriber's queue overflowed).",
			obs.Labels{"outcome": outcome})
	}
	return m
}

// New builds the service, starts its worker pool, and — when journaling
// is enabled — replays and re-admits every async job a previous process
// left pending. Replay is synchronous: once New returns, every journaled
// job is either queued, being solved, or shared with an identical flight.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 1024
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.SessionMax <= 0 {
		cfg.SessionMax = 64
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 5 * time.Minute
	}
	if cfg.SessionMaxMem <= 0 {
		cfg.SessionMaxMem = 256 << 20
	}
	if cfg.EventRing <= 0 {
		cfg.EventRing = 256
	}
	if cfg.EventQueue <= 0 {
		cfg.EventQueue = 256
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	idPrefix := ""
	if cfg.BackendName != "" {
		idPrefix = cfg.BackendName + "-"
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *job, cfg.QueueDepth),
		cache:      newResultCache(cfg.CacheSize),
		uploadKeys: lru.New[[sha256.Size]byte, string](cfg.CacheSize),
		jobs:       newJobStore(cfg.JobHistory, idPrefix),
		brk:        newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		fl:         flightTable{m: make(map[string]*job)},
		sessions:   newSessionTable(cfg.SessionMax, idPrefix),
		pool:       newSolverPool(cfg.SessionMax),
		baseCtx:    ctx,
		cancel:     cancel,
	}
	s.m = newServerMetrics(cfg.Registry, s)
	s.brk.onFlip = func(to breakerState) { s.m.breakerTo(to.String()).Inc() }
	s.alog = newAccessLogger(cfg.AccessLog, 0, 0)

	var pending []*journalRecord
	if cfg.JournalDir != "" {
		jnl, p, err := openJournal(cfg.JournalDir, 0,
			func(op string) { s.m.journalErr(op).Inc() })
		if err != nil {
			cancel()
			return nil, err
		}
		s.jnl = jnl
		pending = p
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.sessionReaper()
	// Every replayed job joins the flight table before any is admitted: a
	// worker that finished a leader's flight before an identical job had
	// joined it would leave that job to be solved a second time.
	var leaders []*job
	for _, rec := range pending {
		if j := s.replayJob(rec); j != nil {
			leaders = append(leaders, j)
		}
	}
	for _, j := range leaders {
		s.admitReplayed(j)
	}
	return s, nil
}

// Registry returns the registry carrying the service metrics (the one
// from Config, or the private one a nil Config.Registry was replaced by).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// initJobStream attaches the live-telemetry plumbing to an async job:
// the broadcaster behind GET /v1/jobs/{id}/events and the tracer behind
// the poll body's progress object. Call before the job becomes findable
// in the job store.
func (s *Server) initJobStream(j *job) {
	j.progress = &progressTracer{}
	j.bcast = obs.NewBroadcaster(obs.BroadcastOpts{
		Ring:     s.cfg.EventRing,
		ReqID:    j.reqID,
		Registry: s.cfg.Registry,
		OnDrop:   func(n int64) { s.m.streamEv("dropped").Add(n) },
	})
}

// replayJob re-creates one journaled job and registers it in the
// singleflight table, where a pending duplicate shares the flight. It
// returns the job when it still needs admission (a flight leader, or a
// job without a key), or nil when it failed or follows a leader.
func (s *Server) replayJob(rec *journalRecord) *job {
	j := newJob(nil)
	j.id = rec.ID
	j.key = rec.Key
	j.trace = rec.Trace
	j.reqID = rec.ReqID
	j.timeout = time.Duration(rec.TimeoutNS)
	if j.timeout <= 0 || j.timeout > s.cfg.MaxTimeout {
		j.timeout = s.cfg.MaxTimeout
	}
	j.ctx = s.baseCtx
	s.initJobStream(j)
	s.jobs.AddReplayed(j, rec.ID)

	f, err := cnf.Parse([]byte(rec.CNF))
	if err != nil {
		s.failReplayed(j, 500, "journal replay: parse DIMACS: "+err.Error())
		return nil
	}
	if herr := s.tooManyVars(f.NumVars); herr != nil {
		s.failReplayed(j, herr.code, "journal replay: "+herr.msg)
		return nil
	}
	j.f = f
	if rec.Policy != "" {
		pol, err := deletion.ByName(rec.Policy)
		if err != nil {
			s.failReplayed(j, 500, "journal replay: "+err.Error())
			return nil
		}
		j.policy = pol
	}
	s.m.replayed.Inc()
	if j.key != "" {
		if leader := s.joinFlight(j); leader != nil {
			s.m.dedup("replay").Inc()
			return nil // completed by the leader's fan-out
		}
	}
	return j
}

// admitReplayed places a replayed job on the admission queue with a
// blocking retry loop: replayed jobs were already promised to a client,
// so they are never shed.
func (s *Server) admitReplayed(j *job) {
	for !s.enqueue(j) {
		if s.closed.Load() || s.draining.Load() {
			s.abortFlight(j, 503, "server stopped during journal replay")
			s.failReplayed(j, 500, "server stopped during journal replay")
			return
		}
		time.Sleep(2 * time.Millisecond) // queue full: workers are draining it
	}
}

// failReplayed completes a replayed job with an error and journals it
// done.
func (s *Server) failReplayed(j *job, code int, msg string) {
	j.fail(code, msg)
	j.finish()
	s.jobs.NoteDone(j)
	s.journalDone(j, "error")
}

// enqueue admits a job or sheds it. It never blocks: admission control is
// the point — a queue that would block means the service is saturated and
// the client should retry later. The read lock orders the admission
// against Drain's switch to draining and excludes the send from the queue
// close in stopWorkers; a request racing a shutdown is shed, never
// panicked on.
func (s *Server) enqueue(j *job) bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.closed.Load() || s.draining.Load() {
		return false
	}
	if err := faultpoint.Hit(faultpoint.ServerEnqueue); err != nil {
		s.m.shed.Inc()
		return false
	}
	s.pending.Add(1)
	select {
	case s.queue <- j:
		return true
	default:
		s.pending.Done()
		s.m.shed.Inc()
		return false
	}
}

// readmit places a retrying job back on the queue. The job's pending slot
// is already held, so no accounting happens here; false means the server
// closed or the queue is momentarily full.
func (s *Server) readmit(j *job) (ok, closed bool) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.closed.Load() {
		return false, true
	}
	select {
	case s.queue <- j:
		return true, false
	default:
		return false, false
	}
}

// worker drains the admission queue until the queue closes (Drain) or the
// base context aborts (Close). Each job runs with panic containment —
// sweep's per-cell isolation applied to requests — so one poisoned
// instance cannot take the pool down.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.runJob(j) {
			continue // a retry is scheduled; it keeps the pending slot
		}
		s.completeJob(j)
	}
}

// runJob executes one attempt of an admitted job and decides whether a
// transient failure earns another: true means a backoff timer now owns
// the job and the worker must not complete it.
func (s *Server) runJob(j *job) (retryScheduled bool) {
	transient := s.executeJob(j)
	if transient && s.canRetry(j) {
		s.scheduleRetry(j)
		return true
	}
	return false
}

// canRetry gates the retry policy: only async (journaled-or-tracked) jobs
// retry, only below the attempt cap, and never once shutdown began.
func (s *Server) canRetry(j *job) bool {
	return j.id != "" && j.attempt < s.cfg.MaxRetries &&
		!s.draining.Load() && s.baseCtx.Err() == nil
}

// scheduleRetry clears the failed attempt's outcome and re-admits the job
// after a jittered exponential backoff. If the queue is momentarily full
// at fire time the timer re-arms at the base delay; if the server closed,
// the job fails terminally (still owning its pending slot, so Drain
// accounts for it either way).
func (s *Server) scheduleRetry(j *job) {
	j.attempt++
	s.m.retries.Inc()
	j.reset()
	var fire func()
	fire = func() {
		ok, closed := s.readmit(j)
		if ok {
			return
		}
		if closed {
			j.fail(503, "server stopped before the retry could run")
			s.completeJob(j)
			return
		}
		time.AfterFunc(s.cfg.RetryBase, fire)
	}
	time.AfterFunc(retryDelay(s.cfg.RetryBase, j.attempt), fire)
}

// retryDelay is full-jitter exponential backoff: attempt n draws
// uniformly from [base·2^(n-1)/2, base·2^(n-1)], capped at 30s, so
// synchronized failures do not retry in lockstep.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// completeJob publishes a job's terminal outcome exactly once: the flight
// is deregistered, the result fans out to every follower, the job store
// and journal record the completion, and the pending slot is released.
func (s *Server) completeJob(j *job) {
	followers := s.leaveFlight(j)
	j.finish()
	_, body, code, msg := j.snapshot()
	status := "ok"
	if code != 0 {
		status = "error"
	}
	if j.id != "" {
		s.jobs.NoteDone(j)
		s.journalDone(j, status)
	}
	for _, fw := range followers {
		fw.setLeaderReq(j.reqID)
		if code != 0 {
			fw.fail(code, msg)
		} else {
			fw.succeed(body)
		}
		fw.finish()
		if fw.id != "" {
			s.jobs.NoteDone(fw)
			s.journalDone(fw, status)
		}
	}
	s.pending.Done()
}

// executeJob runs one solve attempt end to end: policy selection, the
// deadline-bounded solve, response marshaling, cache fill, metrics. The
// return value classifies a failure as transient (retry-eligible):
// injected worker faults, worker panics, and panic-contained Unknown
// results are transient; everything else is deterministic.
func (s *Server) executeJob(j *job) (transient bool) {
	defer func() {
		if r := recover(); r != nil {
			// Should be unreachable — solver.SolveContext contains its own
			// panics — but a worker must survive anything a job throws.
			j.fail(500, fmt.Sprintf("internal error: %v", r))
			transient = true
		}
	}()
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	wait := time.Since(j.enqueued)
	s.m.queueWait.Observe(wait.Seconds())
	j.setRunning()
	s.journalStart(j)

	ctx := j.ctx
	if err := ctx.Err(); err != nil {
		// The client vanished (sync) or the server aborted (async) while
		// the job sat in the queue.
		j.fail(499, "canceled before the solve started")
		return false
	}
	ctx, cancelTimeout := context.WithTimeout(ctx, j.timeout)
	defer cancelTimeout()

	if err := faultpoint.Hit(faultpoint.ServerWorkerSolve); err != nil {
		j.fail(500, "solve failed: "+err.Error())
		return true
	}

	// The solve's tracer chain: the ?trace=1 response buffer, and an async
	// job's live SSE broadcaster and poll-progress tracer, any of them
	// possibly absent. Every sink is non-blocking, so none perturbs the
	// search trajectory. The policy choice is traced to the response
	// buffer alone.
	var mem *memTracer
	var choiceTracer obs.Tracer
	var sinks []obs.Tracer
	if j.trace {
		mem = &memTracer{}
		choiceTracer = mem
		sinks = append(sinks, mem)
	}
	if j.bcast != nil {
		sinks = append(sinks, j.bcast, j.progress)
	}
	tracer := obs.Multi(sinks...)

	if j.portfolio > 0 {
		return s.executePortfolio(j, ctx, wait, mem, tracer)
	}

	// A pinned ?policy=, or the default policy on a server without a
	// selector, is settled before the search starts. Otherwise the choice
	// waits for the first reduction (portfolio.Deferred) and runs behind
	// the inference breaker.
	var ch portfolio.Choice
	var auto *portfolio.Deferred
	switch {
	case j.policy != nil:
		ch = portfolio.Choice{Policy: j.policy, Prob: -1, Fallback: "requested"}
	case s.cfg.Selector == nil:
		ch = portfolio.Choice{Policy: deletion.DefaultPolicy{}, Prob: -1, Fallback: "no-model"}
	default:
		auto = s.cfg.Selector.Defer(j.f, s.choosePolicy, choiceTracer)
		ch.Policy = auto
	}
	if auto == nil && mem != nil {
		mem.Trace(ch.Event())
	}
	opts := dataset.SolveOptions(ch.Policy, 0)
	opts.Tracer = tracer

	solveStart := time.Now()
	res, err := solver.SolveContext(ctx, j.f, opts)
	if auto != nil {
		ch = auto.Result()
	}
	// A deferred choice runs inside the search; its inference is reported
	// as its own stage, not as solve time.
	solveNS := time.Since(solveStart).Nanoseconds() - ch.Inference.Nanoseconds()
	s.observeSolveSeconds(float64(solveNS) / 1e9)
	if err != nil && res.Status != solver.Unknown {
		// Non-panic internal failure (e.g. model verification); panics and
		// deadline exhaustion arrive as error-carrying Unknown results.
		j.fail(500, "solve failed: "+err.Error())
		return false
	}
	if res.Status == solver.Unknown && errors.Is(res.Stop, solver.ErrSolvePanic) && s.canRetry(j) {
		// A contained solver panic is transient; surface it as a failure so
		// the retry path re-runs the attempt. Once retries are exhausted the
		// UNKNOWN/stop=panic result below is the terminal answer.
		j.fail(500, "solver panicked (will retry)")
		return true
	}

	resp := &solveResponse{
		Policy: policyInfo{
			Name:        ch.Policy.Name(),
			Prob:        ch.Prob,
			Fallback:    ch.Fallback,
			InferenceNS: ch.Inference.Nanoseconds(),
		},
		Timings: timings{
			QueueNS: wait.Nanoseconds(),
			SolveNS: solveNS,
			TotalNS: time.Since(j.enqueued).Nanoseconds(),
		},
	}
	s.finishSolve(j, res, resp, mem, resp.Policy.Name)
	return false
}

// finishSolve ends a one-shot solve attempt with its result: it completes
// resp with the outcome, a SAT answer's model, the stop cause and the
// captured trace, counts the solve under the policy label, encodes the
// body once, fills the cache, and attaches the body to the job. Only
// decided, untraced results are cached: UNKNOWN depends on the request's
// own deadline, and trace payloads are per-request.
func (s *Server) finishSolve(j *job, res solver.Result, resp *solveResponse, mem *memTracer, policy string) {
	resp.Status, resp.Stats = res.Status.String(), res.Stats
	if res.Status == solver.Sat {
		resp.Model = modelLits(res.Model, j.f.NumVars)
	}
	if res.Stop != nil {
		resp.Stop = stopReason(res.Stop)
	}
	if mem != nil {
		resp.Trace = mem.events
	}
	s.m.solves(policy, resp.Status).Inc()
	body, err := marshalBody(resp)
	if err != nil {
		j.fail(500, "encode response: "+err.Error())
		return
	}
	if j.key != "" && !j.trace && (res.Status == solver.Sat || res.Status == solver.Unsat) {
		s.cachePut(j.key, body, policy)
	}
	j.succeed(body)
}

// executePortfolio runs one ?portfolio= solve attempt: an N-worker
// shared-clause portfolio (free-running, or lockstep rounds under
// ?deterministic=1) in place of the single-solver path. On a server with a
// selector, worker 0 defers its choice to its first reduction and makes it
// through choosePolicy, as a one-shot auto solve does; the rest stay
// pinned. The response carries the standard solveResponse fields plus the
// append-only portfolio block.
func (s *Server) executePortfolio(j *job, ctx context.Context, wait time.Duration, mem *memTracer, tracer obs.Tracer) (transient bool) {
	cfg := portfolio.Config{
		Workers:       j.portfolio,
		Deterministic: j.deterministic,
		Obs:           s.m.reg,
		Tracer:        tracer,
	}
	if s.cfg.Selector != nil {
		cfg.Auto = s.cfg.Selector.Defer(j.f, s.choosePolicy, nil)
	}
	solveStart := time.Now()
	rep, err := portfolio.SolveParallelContext(ctx, j.f, cfg)
	solveNS := time.Since(solveStart).Nanoseconds()
	s.observeSolveSeconds(float64(solveNS) / 1e9)
	if err != nil {
		// The portfolio contains individual worker panics, so an error here
		// means every worker failed — treated like a contained solver panic:
		// transient, retry-eligible.
		j.fail(500, "portfolio solve failed: "+err.Error())
		return true
	}

	polName := "portfolio"
	if rep.Winner != "" {
		polName = rep.Winner
	}
	resp := &solveResponse{
		Policy: policyInfo{Name: polName, Prob: -1, Fallback: "portfolio"},
		Timings: timings{
			QueueNS: wait.Nanoseconds(),
			SolveNS: solveNS,
			TotalNS: time.Since(j.enqueued).Nanoseconds(),
		},
		Portfolio: &portfolioInfo{
			Workers:       rep.Workers,
			Deterministic: rep.Deterministic,
			Winner:        rep.Winner,
			WinnerIndex:   rep.WinnerIndex,
			Rounds:        rep.Rounds,
			PseudoTimeUS:  int64(rep.PseudoTime / time.Microsecond),
			Exchange:      rep.Exchange,
			Failures:      rep.Failures,
		},
	}
	if rep.WinnerIndex >= 0 {
		resp.Portfolio.PropFreqHash = fmt.Sprintf("%016x", rep.PropFreqHash)
	}
	s.finishSolve(j, rep.Result, resp, mem, "portfolio")
	return false
}

// FallbackBreakerOpen is the policy fallback reason reported while the
// inference circuit breaker is open and model calls are skipped outright.
const FallbackBreakerOpen = "breaker-open"

// choosePolicy runs the selector behind the circuit breaker: an open
// breaker skips the model call outright, a skip the selector records like
// any other, and a contained inference failure (panic or error, which
// covers faults injected at the model-inference site) feeds the breaker
// as a failure.
func (s *Server) choosePolicy(f *cnf.Formula) portfolio.Choice {
	if !s.brk.Allow() {
		s.m.inference(FallbackBreakerOpen).Inc()
		return s.cfg.Selector.Skip(FallbackBreakerOpen)
	}
	ch := s.cfg.Selector.Choose(f)
	s.brk.Record(ch.Err == nil)
	if ch.Err != nil {
		s.m.inference("failure").Inc()
	} else {
		s.m.inference("ok").Inc()
	}
	return ch
}

// cacheGet consults the result cache; an injected cache fault degrades to
// a miss, never an error.
func (s *Server) cacheGet(key string) (*cacheEntry, bool) {
	if err := faultpoint.Hit(faultpoint.ServerCacheGet); err != nil {
		return nil, false
	}
	return s.cache.Get(key)
}

// cachePut fills the result cache; an injected cache fault skips the fill.
func (s *Server) cachePut(key string, body []byte, policy string) {
	if err := faultpoint.Hit(faultpoint.ServerCachePut); err != nil {
		return
	}
	if ev := s.cache.Put(key, body, policy); ev > 0 {
		s.m.cacheEv("evict").Add(int64(ev))
	}
}

// journalSubmit records a freshly admitted async job. Must run before the
// client's 202 so a crash after acknowledgment never loses the job.
func (s *Server) journalSubmit(j *job) {
	if s.jnl == nil || j.id == "" {
		return
	}
	rec := &journalRecord{
		Type:      "submit",
		ID:        j.id,
		Key:       j.key,
		TimeoutNS: int64(j.timeout),
		Trace:     j.trace,
		ReqID:     j.reqID,
	}
	if j.policy != nil {
		rec.Policy = j.policy.Name()
	}
	var buf strings.Builder
	if err := cnf.WriteDIMACS(&buf, j.f); err != nil {
		s.m.journalErr("append").Inc()
		return
	}
	rec.CNF = buf.String()
	s.jnl.append(rec)
}

// journalStart records one solve attempt of an async job.
func (s *Server) journalStart(j *job) {
	if s.jnl == nil || j.id == "" {
		return
	}
	s.jnl.append(&journalRecord{Type: "start", ID: j.id, Attempt: j.attempt})
}

// journalDone records an async job's terminal state.
func (s *Server) journalDone(j *job, status string) {
	if s.jnl == nil || j.id == "" {
		return
	}
	s.jnl.append(&journalRecord{Type: "done", ID: j.id, Status: status})
}

// observeSolveSeconds feeds the smoothed solve-time estimate behind the
// Retry-After hint (EWMA, α=0.2).
func (s *Server) observeSolveSeconds(sec float64) {
	for {
		old := s.solveEWMA.Load()
		prev := math.Float64frombits(old)
		next := sec
		if prev > 0 {
			next = 0.8*prev + 0.2*sec
		}
		if s.solveEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds derives the Retry-After hint for a shed request from
// the live backlog: the queued jobs ahead of the client times the
// smoothed per-solve cost, divided across the pool, jittered ±20% so a
// synchronized flock of shed clients does not return as a thundering
// herd. Clamped to [1, 120] whole seconds.
func (s *Server) retryAfterSeconds() int {
	mean := math.Float64frombits(s.solveEWMA.Load())
	if mean <= 0 {
		mean = 1 // no completed solve yet: assume a second
	}
	backlog := float64(len(s.queue) + 1)
	est := backlog * mean / float64(s.cfg.Workers)
	est *= 0.8 + 0.4*rand.Float64()
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 120 {
		sec = 120
	}
	return sec
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the service down: new submissions are refused
// with 503 immediately, queued and in-flight jobs (including scheduled
// retries) run to completion, and Drain returns when the pool is idle or
// ctx expires (in-flight solves still run under their own deadlines
// either way). On success the journal is compacted down to nothing and
// closed. Call before shutting the HTTP listener so sync waiters get
// their responses.
func (s *Server) Drain(ctx context.Context) error {
	// A Delay fault here simulates a slow drain for the chaos harness;
	// errors are deliberately ignored — drain must always proceed.
	_ = faultpoint.Hit(faultpoint.ServerDrain)
	// Admissions check draining and take their pending slot under the
	// read lock, so none takes one once Wait may be running: a WaitGroup
	// Add from zero must happen before Wait.
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopWorkers()
		s.closeJournal()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close aborts the service: the base context cancels (async solves return
// UNKNOWN/canceled promptly) and the workers exit once the queue empties.
// Safe after Drain.
func (s *Server) Close() {
	s.cancel()
	s.stopWorkers()
	s.closeJournal()
}

// stopWorkers closes the queue exactly once and joins the pool (workers
// plus the session reaper, which exits on the base-context cancel — by the
// time stopWorkers runs, both Drain and Close have no pending work left
// that the cancel could abort).
func (s *Server) stopWorkers() {
	s.draining.Store(true)
	s.cancel()
	s.admitMu.Lock()
	if s.closed.CompareAndSwap(false, true) {
		close(s.queue)
	}
	s.admitMu.Unlock()
	s.wg.Wait()
}

// closeJournal compacts and closes the journal once the pool is idle.
func (s *Server) closeJournal() {
	if s.jnl != nil {
		s.jnl.Close()
	}
}

// memTracer buffers the events of one solve for the ?trace=1 response
// payload. A job is driven by one worker goroutine, but the mutex keeps
// the type safe if an emitter ever moves off it.
type memTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (t *memTracer) Trace(ev *obs.Event) {
	t.mu.Lock()
	t.events = append(t.events, *ev)
	t.mu.Unlock()
}

// modelLits renders a satisfying assignment over variables 1..n as
// DIMACS-style signed literals, mirroring satsolve's v-line. One-shot
// solves pass the formula's NumVars, sessions their solver's UserVars.
func modelLits(m cnf.Assignment, n int) []int {
	lits := make([]int, 0, n)
	for v := 1; v <= n; v++ {
		if m[v] {
			lits = append(lits, v)
		} else {
			lits = append(lits, -v)
		}
	}
	return lits
}

// stopReason maps an Unknown result's stop cause to the stable string
// vocabulary of the API (see API.md): timeout, canceled,
// conflict-budget, propagation-budget, panic.
func stopReason(stop error) string {
	switch {
	case stop == nil:
		return ""
	case errors.Is(stop, solver.ErrDeadline):
		return "timeout"
	case errors.Is(stop, solver.ErrCanceled):
		return "canceled"
	case errors.Is(stop, solver.ErrConflictBudget):
		return "conflict-budget"
	case errors.Is(stop, solver.ErrPropagationBudget):
		return "propagation-budget"
	case errors.Is(stop, solver.ErrSolvePanic):
		return "panic"
	default:
		return stop.Error()
	}
}
