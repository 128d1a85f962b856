// Command neuroselect-serve runs the solver as an HTTP service.
//
// Usage:
//
//	neuroselect-serve [-addr :8080] [-workers N] [-queue N] [-model model.json]
//	                  [-metrics-addr HOST:PORT] [-journal DIR]
//	                  [-session-ttl D] [-log-format off|text|json]
//	                  [-sse-heartbeat D] [-event-queue N]
//	                  [-backend-name NAME]
//	neuroselect-serve -coordinator -replicas URL,URL,... [-addr :8080]
//	                  [-probe-interval D] [-probe-timeout D]
//	                  [-metrics-addr HOST:PORT]
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
// Every other setting is fixed: request bodies are capped at 64 MiB
// (wire and decompressed, at both tiers), a request's ?timeout= at 30s,
// and the result cache holds 256 entries.
//
// -log-format turns on the structured access log on stderr: one line per
// request (method, path, status, bytes, duration, request id, cache/dedup
// outcome) as logfmt-style text or JSON objects, sampled under flood.
// Every response carries an X-Request-ID (echoed from the request when
// well-formed, generated otherwise) that correlates the access line with
// journal records, streamed trace events, and job views.
//
// Each async job keeps its last 256 trace events for Last-Event-ID
// replay; each SSE subscriber buffers up to -event-queue pending events
// (beyond that events are dropped and counted — a slow client never slows
// the solve), and idle streams emit a keep-alive comment every
// -sse-heartbeat.
//
// Warm incremental sessions behind /v1/sessions expire after -session-ttl
// idle. At most 64 live at once (LRU-evicted beyond that), and a session
// whose solver's footprint estimate exceeds 256 MiB is closed early.
// Sessions are not journaled — a restart loses them; clients recreate on
// 404 and the warm pool usually makes the recreation cheap.
//
// -model loads a trained selector (see `neuroselect train`) for requests
// that pin no ?policy=. Such a solve runs the paper's one-time policy
// inference when its search first reduces, the only place the policy
// acts, and decides at the threshold the model file carries (0.5 for a
// file that stores none); a solve that never reduces runs no inference
// and answers with the fallback "no-reduction". A failed inference
// degrades only its own request to the default policy. Without -model all
// requests solve under the default policy (or a ?policy= override).
//
// -journal enables the durable job journal: async jobs are fsync'd to
// DIR/journal.jsonl before they are acknowledged, and a restart with the
// same -journal directory replays any jobs a crash left pending.
//
// SIGINT/SIGTERM starts a graceful drain: new submissions get 503,
// queued and in-flight jobs get up to 60s to finish, then the listener
// closes. A second signal aborts immediately.
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
// (ejecting it from routing after two consecutive failures and
// readmitting it on the first success), and retries idempotent requests
// on the ring's next replica after a transport-level failure. Every
// proxied response carries X-Backend naming the replica that produced it.
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

// drainTimeout bounds a graceful shutdown: queued and in-flight jobs, or a
// coordinator's in-flight proxied requests, get this long.
const drainTimeout = 60 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "HTTP listen address for the solving API (:0 picks a port, printed on startup)")
	workers := flag.Int("workers", 0, "solver worker pool size (0 = all CPUs)")
	queue := flag.Int("queue", 64, "admission-queue depth; a full queue sheds requests with 429")
	modelPath := flag.String("model", "", "trained selector model file; empty serves with the default policy only")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	journalDir := flag.String("journal", "", "directory for the durable job journal; empty disables journaling and crash recovery")
	sessionTTL := flag.Duration("session-ttl", 5*time.Minute, "idle time after which a warm session (or parked pool solver) expires")
	logFormat := flag.String("log-format", "off", "structured access log on stderr: off, text, or json (one line per request, sampled under flood)")
	sseHeartbeat := flag.Duration("sse-heartbeat", 15*time.Second, "keep-alive comment interval on idle SSE event streams")
	eventQueue := flag.Int("event-queue", 256, "per-subscriber SSE queue depth; events past it are dropped and counted, never block the solve")
	backendName := flag.String("backend-name", "", "cluster backend mode: name this replica (sets X-Backend on responses and prefixes job/session ids)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator: route requests across -replicas instead of solving locally")
	replicas := flag.String("replicas", "", "coordinator mode: comma-separated backend base URLs (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "coordinator mode: per-backend /healthz probe cadence")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "coordinator mode: timeout for one health probe")
	flag.Parse()

	if *coordinator {
		return runCoordinator(*addr, *metricsAddr, *replicas, cluster.Config{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
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

	reg, closeMetrics, err := serveMetrics(*metricsAddr)
	if err != nil {
		return fail(err)
	}
	defer closeMetrics()

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
		Workers:      *workers,
		QueueDepth:   *queue,
		JournalDir:   *journalDir,
		SessionTTL:   *sessionTTL,
		EventQueue:   *eventQueue,
		SSEHeartbeat: *sseHeartbeat,
		AccessLog:    accessLog,
		BackendName:  *backendName,
		Selector:     sel,
		Registry:     reg,
	})
	if err != nil {
		return fail(err)
	}
	if *journalDir != "" {
		fmt.Printf("job journal at %s\n", *journalDir)
	}
	return serve(*addr, svc.Handler(), "solving API listening on %s\n",
		"draining: refusing new work, finishing queued and in-flight jobs",
		func(ctx context.Context) {
			if err := svc.Drain(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "neuroselect-serve: drain:", err)
				svc.Close()
			}
		})
}

// runCoordinator is the -coordinator main loop: build the routing tier
// over the comma-separated replica URLs, serve it, and on SIGINT/SIGTERM
// drain (healthz flips to 503 so load balancers back off, in-flight
// proxied requests finish) before the listener closes.
func runCoordinator(addr, metricsAddr, replicas string, cfg cluster.Config) int {
	for _, u := range strings.Split(replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.Replicas = append(cfg.Replicas, u)
		}
	}
	if len(cfg.Replicas) == 0 {
		return fail(errors.New("-coordinator requires -replicas (comma-separated backend base URLs)"))
	}

	reg, closeMetrics, err := serveMetrics(metricsAddr)
	if err != nil {
		return fail(err)
	}
	defer closeMetrics()

	cfg.Registry = reg
	coord, err := cluster.New(cfg)
	if err != nil {
		return fail(err)
	}
	defer coord.Close()

	listening := fmt.Sprintf("cluster coordinator listening on %%s (%d replicas)\n", len(cfg.Replicas))
	return serve(addr, coord.Handler(), listening,
		"draining: refusing new work, finishing in-flight proxied requests",
		func(context.Context) { coord.Drain() })
}

// serveMetrics builds the process registry and, when addr is set, serves
// it there. The returned func stops the metrics listener.
func serveMetrics(addr string) (*obs.Registry, func(), error) {
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg, time.Now())
	if addr == "" {
		return reg, func() {}, nil
	}
	msrv, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("metrics listening on %s\n", msrv.Addr())
	return reg, func() { msrv.Close() }, nil
}

// serve runs h on addr, printing the bound address through the listening
// format, until the first SIGINT/SIGTERM. It then prints draining, calls
// drain and shuts the listener down, both within drainTimeout. A second
// signal kills the process via the default handler.
func serve(addr string, h http.Handler, listening, draining string, drain func(context.Context)) int {
	httpSrv := &http.Server{Handler: h}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf(listening, ln.Addr())

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
	fmt.Println(draining)

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drain(drainCtx)
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
