// Package cluster is the distribution layer over internal/server: a
// stateless coordinator that consistent-hashes the canonical formula
// hash across a static set of solver replicas, so identical formulas
// always land on the same replica and that replica's LRU result cache,
// singleflight table, and warm-session pool become cluster-wide
// properties for free.
//
// The coordinator proxies the full /v1 surface:
//
//   - POST /v1/solve and POST /v1/jobs route by CanonicalHash of the
//     uploaded formula (the same key the replica's cache uses), with
//     transparent failover to the key's ring successor when the owner is
//     down — a transport-level failure before any response bytes marks
//     the backend down and retries once on the next live backend. A memo
//     from an upload's wire digest to its key routes a byte-identical
//     repeat without decoding it.
//   - GET /v1/jobs/{id} and GET /v1/jobs/{id}/events route by a bounded
//     job-id → backend map filled from proxied submissions; an unknown id
//     (coordinator restart, map eviction) falls back to scatter-probing
//     the live backends. Event streams are proxied flush-per-event so SSE
//     frames and heartbeat comments pass through in real time.
//   - /v1/sessions/* has strict session affinity: creation routes by
//     formula hash, every later step follows the session-id → backend
//     map. Session steps are never retried elsewhere — the warm solver
//     state exists on exactly one replica.
//
// Health is tracked per backend by an active /healthz prober (ejection
// after failThreshold consecutive failures, readmission on the first
// success) plus passive markdown on proxy transport errors. The ring
// itself is immutable — dead backends are skipped at lookup, so only the
// dead backend's keys remap (~1/N) and readmission restores the exact
// original assignment (see ring.go, ring_test.go).
//
// X-Request-ID threads end to end: the coordinator runs the same
// correlation middleware as the replicas and forwards the id, so one id
// names a request in the coordinator's metrics, the replica's access
// log, its journal records, and its trace events. Every proxied response
// carries X-Backend naming the replica that produced it.
package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neuroselect/internal/lru"
	"neuroselect/internal/obs"
	"neuroselect/internal/server"
)

// Config sizes a Coordinator. Replicas is required; everything else has
// serviceable defaults.
type Config struct {
	// Replicas are the backend base URLs (e.g. http://10.0.0.1:8080).
	// The set is static for the coordinator's lifetime; health probing
	// ejects and readmits members, it never adds new ones.
	Replicas []string
	// ProbeInterval is the per-backend /healthz cadence (<=0 → 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health check (<=0 → min(ProbeInterval, 1s)).
	ProbeTimeout time.Duration
	// MaxBodyBytes caps a buffered upload body, matching the replicas'
	// own cap so the coordinator rejects oversize bodies before
	// forwarding them (<=0 → 64 MiB, the replicas' default).
	MaxBodyBytes int64
	// Registry receives the neuroselect_cluster_* metrics; nil uses a
	// private registry.
	Registry *obs.Registry
}

const (
	// failThreshold is how many consecutive probe failures eject a backend
	// from routing. One probe success readmits it.
	failThreshold = 2
	// routeCap bounds each of the coordinator's LRU maps: the job-id and
	// session-id affinity maps, and the route-key memo from an upload's
	// wire digest to its routing key. An evicted job or session id
	// degrades to a scatter probe (the resource still lives on its
	// replica); an evicted upload is keyed again by gunzip, parse and
	// hash. None of the three changes where a key routes.
	routeCap = 4096
)

// Coordinator is a running routing tier. Create with New, mount Handler
// on an http.Server, stop with Close (Drain first for graceful LB
// handoff).
type Coordinator struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend // ring name → state
	client   *http.Client

	jobRoute  *routeMap // job id → backend name
	sessRoute *routeMap // session id → backend name
	// routeKeys memoizes routeKey for uploads it keyed canonically: an
	// upload's wire digest (server.UploadDigest) → its routing key.
	routeKeys *lru.Cache[[sha256.Size]byte, string]

	draining atomic.Bool
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	m clusterMetrics
}

type clusterMetrics struct {
	routed    func(backend, endpoint string) *obs.Counter
	retries   *obs.Counter
	probes    func(backend, outcome string) *obs.Counter
	routeKeys func(event string) *obs.Counter
}

func newClusterMetrics(reg *obs.Registry, c *Coordinator) clusterMetrics {
	m := clusterMetrics{}
	m.routed = func(backend, endpoint string) *obs.Counter {
		return reg.Counter("neuroselect_cluster_routed_total",
			"Requests proxied, by backend and endpoint.",
			obs.Labels{"backend": backend, "endpoint": endpoint})
	}
	m.retries = reg.Counter("neuroselect_cluster_retries_total",
		"Proxied requests retried on a fallback backend after a transport failure.", nil)
	m.probes = func(backend, outcome string) *obs.Counter {
		return reg.Counter("neuroselect_cluster_probes_total",
			"Active health probes by backend and outcome (ok, fail).",
			obs.Labels{"backend": backend, "outcome": outcome})
	}
	m.routeKeys = func(event string) *obs.Counter {
		return reg.Counter("neuroselect_cluster_route_keys_total",
			"Route-key memo lookups by event: hit (a byte-identical repeat routed without decoding) or miss.",
			obs.Labels{"event": event})
	}
	for name, b := range c.backends {
		b := b
		reg.GaugeFunc("neuroselect_cluster_backend_state",
			"Backend routing state (1 = up, 0 = ejected).",
			obs.Labels{"backend": name},
			func() float64 {
				if b.up.Load() {
					return 1
				}
				return 0
			})
	}
	return m
}

// New builds the coordinator, marks every configured backend up, and
// starts the health probers. It does not wait for a probe round: a
// backend that is down at startup costs one failed proxy (passive
// markdown plus failover) before routing stops considering it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
		if cfg.ProbeTimeout > cfg.ProbeInterval {
			cfg.ProbeTimeout = cfg.ProbeInterval
		}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:      cfg,
		backends: make(map[string]*backend, len(cfg.Replicas)),
		// No client-level timeout: solves legitimately block for the
		// request's ?timeout= and SSE streams are open-ended. Per-probe
		// deadlines come from probeOnce's context.
		client:    &http.Client{},
		jobRoute:  lru.New[string, string](routeCap),
		sessRoute: lru.New[string, string](routeCap),
		routeKeys: lru.New[[sha256.Size]byte, string](routeCap),
	}
	var names []string
	for _, raw := range cfg.Replicas {
		u, err := url.Parse(strings.TrimSuffix(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad replica URL %q (want scheme://host:port)", raw)
		}
		name := u.Host
		if _, dup := c.backends[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica %q", name)
		}
		b := &backend{name: name, base: u}
		b.up.Store(true)
		c.backends[name] = b
		names = append(names, name)
	}
	c.ring = NewRing(names)
	c.m = newClusterMetrics(cfg.Registry, c)

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for _, b := range c.backends {
		c.wg.Add(1)
		go c.probeLoop(ctx, b)
	}
	return c, nil
}

// Registry returns the registry carrying the coordinator metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.cfg.Registry }

// Draining reports whether the coordinator has stopped admitting work.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Drain flips the coordinator to draining: /healthz answers 503 (load
// balancers stop routing here) and new data-plane requests are refused.
// In-flight proxied requests are the http.Server's to finish — call
// http.Server.Shutdown after Drain, then Close.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// Close stops the health probers. Idempotent.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

// alive reports whether a backend is currently routable.
func (c *Coordinator) alive(name string) bool {
	b, ok := c.backends[name]
	return ok && b.up.Load()
}

// liveBackends returns the routable backends in ring order (stable, so
// scatter probes are deterministic).
func (c *Coordinator) liveBackends() []*backend {
	var out []*backend
	for _, name := range c.ring.Backends() {
		if b := c.backends[name]; b != nil && b.up.Load() {
			out = append(out, b)
		}
	}
	return out
}

// Handler returns the coordinator mux: the replica surface, proxied,
// plus the coordinator's own /healthz. Every request runs through the
// same X-Request-ID middleware the replicas use.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", c.handleHashRouted("solve"))
	mux.HandleFunc("POST /v1/jobs", c.handleHashRouted("jobs"))
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJobEvents)
	mux.HandleFunc("POST /v1/sessions", c.handleHashRouted("session-create"))
	mux.HandleFunc("POST /v1/sessions/{id}/solve", c.handleSessionOp("session-solve"))
	mux.HandleFunc("GET /v1/sessions/{id}", c.handleSessionOp("session-info"))
	mux.HandleFunc("DELETE /v1/sessions/{id}", c.handleSessionOp("session-delete"))
	mux.HandleFunc("GET /healthz", c.handleHealth)
	return server.WithRequestID(mux)
}

// handleHealth is the coordinator's own liveness: 200 "ok" while
// routing, 503 "draining" during shutdown, 503 "degraded" when every
// backend is ejected (an upstream load balancer should prefer a
// coordinator that can actually route), plus one line per backend so an
// operator's curl shows the ring state at a glance.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	code, state := http.StatusOK, "ok"
	if c.Draining() {
		code, state = http.StatusServiceUnavailable, "draining"
	} else if len(c.liveBackends()) == 0 {
		code, state = http.StatusServiceUnavailable, "degraded"
	}
	w.WriteHeader(code)
	fmt.Fprintln(w, state)
	for _, name := range c.ring.Backends() {
		st := "down"
		if c.alive(name) {
			st = "up"
		}
		fmt.Fprintf(w, "backend %s %s\n", name, st)
	}
}

// routeMap is a bounded LRU map of resource id → backend name, filling
// from proxied responses. Eviction only costs a scatter probe later, so
// the bound is a memory cap, not a correctness edge.
type routeMap = lru.Cache[string, string]
