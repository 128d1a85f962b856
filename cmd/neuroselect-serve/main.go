// Command neuroselect-serve runs the solver as an HTTP service.
//
// Usage:
//
//	neuroselect-serve [-addr :8080] [-workers N] [-queue N] [-max-timeout D]
//	                  [-cache-size N] [-max-body BYTES] [-model model.json]
//	                  [-metrics-addr HOST:PORT] [-drain-timeout D]
//	                  [-journal DIR] [-max-retries N] [-retry-base D]
//	                  [-breaker-threshold N] [-breaker-cooldown D]
//	                  [-breaker-max-latency D] [-session-max N]
//	                  [-session-ttl D] [-session-max-mem BYTES]
//	                  [-log-format off|text|json] [-sse-heartbeat D]
//	                  [-event-ring N] [-event-queue N]
//	                  [-backend-name NAME]
//	neuroselect-serve -coordinator -replicas URL,URL,... [-addr :8080]
//	                  [-probe-interval D] [-probe-timeout D]
//	                  [-fail-threshold N] [-metrics-addr HOST:PORT]
//	                  [-max-body BYTES] [-drain-timeout D]
//
// Endpoints (full contract in API.md):
//
//	POST   /v1/solve               DIMACS CNF body (raw or gzip) → solve result JSON
//	POST   /v1/jobs                same body → async job id
//	GET    /v1/jobs/{id}           poll an async job (live progress while running)
//	GET    /v1/jobs/{id}/events    stream the job's trace events as SSE
//	POST   /v1/sessions            DIMACS body → warm incremental session id
//	POST   /v1/sessions/{id}/solve JSON step (pop/push/add/assumptions) → result
//	GET    /v1/sessions/{id}       session info
//	DELETE /v1/sessions/{id}       close a session (parks the warm solver)
//	GET    /healthz                liveness (503 while draining)
//
// -log-format turns on the structured access log on stderr: one line per
// request (method, path, status, bytes, duration, request id, cache/dedup
// outcome) as logfmt-style text or JSON objects, sampled under flood.
// Every response carries an X-Request-ID (echoed from the request when
// well-formed, generated otherwise) that correlates the access line with
// journal records, streamed trace events, and job views.
//
// -event-ring/-event-queue/-sse-heartbeat size the live telemetry layer:
// each async job keeps its last -event-ring trace events for Last-Event-ID
// replay, each SSE subscriber buffers up to -event-queue pending events
// (beyond that events are dropped and counted — a slow client never slows
// the solve), and idle streams emit a keep-alive comment every
// -sse-heartbeat.
//
// The -session-* flags bound the warm incremental sessions behind
// /v1/sessions: at most -session-max live sessions (LRU-evicted beyond
// that), each expiring after -session-ttl idle and closed early if its
// solver's footprint estimate exceeds -session-max-mem bytes. Sessions are
// not journaled — a restart loses them; clients recreate on 404 and the
// warm pool usually makes the recreation cheap.
//
// -model loads a trained selector (see `neuroselect train`) so every
// request gets the paper's one-time policy inference, decided at the
// threshold the model file carries (0.5 for a file that stores none);
// without it all requests solve under the default policy (or a ?policy=
// override).
//
// -journal enables the durable job journal: async jobs are fsync'd to
// DIR/journal.jsonl before they are acknowledged, and a restart with the
// same -journal directory replays any jobs a crash left pending.
// -max-retries/-retry-base govern re-admission of transiently failed
// async jobs, and the -breaker-* flags tune the circuit breaker that
// degrades a failing selector model to the default policy.
//
// SIGINT/SIGTERM starts a graceful drain: new submissions get 503,
// queued and in-flight jobs finish, then the listener closes. A second
// signal aborts immediately.
//
// # Cluster mode
//
// -coordinator turns the process into a stateless routing tier instead
// of a solver: it consistent-hashes each upload's canonical formula hash
// across the -replicas list (comma-separated base URLs of backend-mode
// solver processes), so identical formulas always land on the same
// replica and that replica's result cache and warm-session pool serve
// the whole cluster. The coordinator proxies the entire /v1 surface —
// including SSE event streams and session operations with strict
// affinity — probes each replica's /healthz every -probe-interval
// (ejecting it from routing after -fail-threshold consecutive failures
// and readmitting it on the first success), and retries idempotent
// requests on the ring's next replica after a transport-level failure.
// Every proxied response carries X-Backend naming the replica that
// produced it.
//
// Replicas behind a coordinator should run with -backend-name: the name
// appears in X-Backend and prefixes job/session ids so ids are unique
// across the cluster. See OPERATIONS.md for the full deployment runbook
// and README.md for a copy-pasteable local cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neuroselect"
	"neuroselect/internal/cluster"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "HTTP listen address for the solving API (:0 picks a port, printed on startup)")
	workers := flag.Int("workers", 0, "solver worker pool size (0 = all CPUs)")
	queue := flag.Int("queue", 64, "admission-queue depth; a full queue sheds requests with 429")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "ceiling for the per-request ?timeout= and the default when absent")
	cacheSize := flag.Int("cache-size", 256, "result-cache capacity in entries (negative disables caching)")
	maxBody := flag.Int64("max-body", 64<<20, "maximum request body size in bytes (decompressed)")
	modelPath := flag.String("model", "", "trained selector model file; empty serves with the default policy only")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long a graceful shutdown waits for queued and in-flight jobs")
	journalDir := flag.String("journal", "", "directory for the durable job journal; empty disables journaling and crash recovery")
	maxRetries := flag.Int("max-retries", 2, "re-admissions of a transiently failed async job before the failure is terminal (0 disables retries)")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "base of the jittered exponential retry backoff")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive selector-inference failures that open the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "how long an open breaker waits before probing the selector again")
	breakerMaxLatency := flag.Duration("breaker-max-latency", 0, "inference slower than this counts as a breaker failure (0 disables latency tripping)")
	sessionMax := flag.Int("session-max", 64, "maximum live warm incremental sessions; creating past the bound evicts the least-recently-used idle one")
	sessionTTL := flag.Duration("session-ttl", 5*time.Minute, "idle time after which a warm session (or parked pool solver) expires")
	sessionMaxMem := flag.Int64("session-max-mem", 256<<20, "per-session solver footprint cap in bytes; a solve that grows past it closes the session")
	logFormat := flag.String("log-format", "off", "structured access log on stderr: off, text, or json (one line per request, sampled under flood)")
	sseHeartbeat := flag.Duration("sse-heartbeat", 15*time.Second, "keep-alive comment interval on idle SSE event streams")
	eventRing := flag.Int("event-ring", 256, "per-job replay ring for GET /v1/jobs/{id}/events, in trace events")
	eventQueue := flag.Int("event-queue", 256, "per-subscriber SSE queue depth; events past it are dropped and counted, never block the solve")
	backendName := flag.String("backend-name", "", "cluster backend mode: name this replica (sets X-Backend on responses and prefixes job/session ids)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator: route requests across -replicas instead of solving locally")
	replicas := flag.String("replicas", "", "coordinator mode: comma-separated backend base URLs (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "coordinator mode: per-backend /healthz probe cadence")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "coordinator mode: timeout for one health probe")
	failThreshold := flag.Int("fail-threshold", 2, "coordinator mode: consecutive probe failures that eject a backend from routing (one success readmits)")
	flag.Parse()

	if *coordinator {
		return runCoordinator(coordinatorOpts{
			addr:          *addr,
			replicas:      *replicas,
			probeInterval: *probeInterval,
			probeTimeout:  *probeTimeout,
			failThreshold: *failThreshold,
			maxBody:       *maxBody,
			metricsAddr:   *metricsAddr,
			drainTimeout:  *drainTimeout,
		})
	}

	var accessLog *slog.Logger
	switch *logFormat {
	case "off", "":
	case "text":
		accessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		accessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		return fail(fmt.Errorf("bad -log-format %q: want off, text, or json", *logFormat))
	}

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg, time.Now())
	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer msrv.Close()
		fmt.Printf("metrics listening on %s\n", msrv.Addr())
	}

	var sel *portfolio.Selector
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			return fail(err)
		}
		model, err := neuroselect.LoadModel(mf)
		mf.Close()
		if err != nil {
			return fail(err)
		}
		sel = portfolio.NewSelector(model)
		sel.Obs = reg
		fmt.Printf("selector model loaded from %s (threshold %g)\n", *modelPath, model.Threshold)
	}

	svc, err := server.New(server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		MaxTimeout:        *maxTimeout,
		CacheSize:         *cacheSize,
		MaxBodyBytes:      *maxBody,
		JournalDir:        *journalDir,
		MaxRetries:        *maxRetries,
		RetryBase:         *retryBase,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		BreakerMaxLatency: *breakerMaxLatency,
		SessionMax:        *sessionMax,
		SessionTTL:        *sessionTTL,
		SessionMaxMem:     *sessionMaxMem,
		EventRing:         *eventRing,
		EventQueue:        *eventQueue,
		SSEHeartbeat:      *sseHeartbeat,
		AccessLog:         accessLog,
		BackendName:       *backendName,
		Selector:          sel,
		Registry:          reg,
	})
	if err != nil {
		return fail(err)
	}
	if *journalDir != "" {
		fmt.Printf("job journal at %s\n", *journalDir)
	}

	httpSrv := &http.Server{Handler: svc.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("solving API listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process via the default handler
	fmt.Println("draining: refusing new work, finishing queued and in-flight jobs")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "neuroselect-serve: drain:", err)
		svc.Close()
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "neuroselect-serve: shutdown:", err)
	}
	fmt.Println("drained; bye")
	return 0
}

// coordinatorOpts carries the -coordinator mode's flag values.
type coordinatorOpts struct {
	addr          string
	replicas      string
	probeInterval time.Duration
	probeTimeout  time.Duration
	failThreshold int
	maxBody       int64
	metricsAddr   string
	drainTimeout  time.Duration
}

// runCoordinator is the -coordinator main loop: build the routing tier,
// serve it, and on SIGINT/SIGTERM drain (healthz flips to 503 so load
// balancers back off, in-flight proxied requests finish) before the
// listener closes.
func runCoordinator(opts coordinatorOpts) int {
	var urls []string
	for _, u := range strings.Split(opts.replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fail(errors.New("-coordinator requires -replicas (comma-separated backend base URLs)"))
	}

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg, time.Now())
	if opts.metricsAddr != "" {
		msrv, err := obs.Serve(opts.metricsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer msrv.Close()
		fmt.Printf("metrics listening on %s\n", msrv.Addr())
	}

	coord, err := cluster.New(cluster.Config{
		Replicas:      urls,
		ProbeInterval: opts.probeInterval,
		ProbeTimeout:  opts.probeTimeout,
		FailThreshold: opts.failThreshold,
		MaxBodyBytes:  opts.maxBody,
		Registry:      reg,
	})
	if err != nil {
		return fail(err)
	}
	defer coord.Close()

	httpSrv := &http.Server{Handler: coord.Handler()}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("cluster coordinator listening on %s (%d replicas)\n", ln.Addr(), len(urls))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fail(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("draining: refusing new work, finishing in-flight proxied requests")

	coord.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "neuroselect-serve: shutdown:", err)
	}
	fmt.Println("drained; bye")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "neuroselect-serve:", err)
	return 1
}
