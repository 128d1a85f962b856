package cluster

// The proxy paths. Three shapes:
//
//   - hash-routed POSTs (/v1/solve, /v1/jobs, /v1/sessions): the body is
//     buffered (it must be re-sendable for failover), the routing key is
//     the canonical formula hash — the same key the replica's result
//     cache uses, which is the whole point: the coordinator's routing
//     function and the replica's cache key agree, so a repeat upload
//     lands on the replica that already holds the answer.
//   - id-routed requests (/v1/jobs/{id}, /v1/sessions/{id}…): follow the
//     id → backend affinity map, falling back to a scatter probe of the
//     live backends when the map has no answer (coordinator restart, LRU
//     eviction). Job reads may fail over; session writes never do — the
//     warm solver exists on exactly one replica.
//   - the SSE stream (/v1/jobs/{id}/events): resolved like a job read,
//     then streamed flush-per-chunk so event frames and heartbeat
//     comments reach the client in real time instead of sitting in a
//     proxy buffer.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"neuroselect/internal/cnf"
	"neuroselect/internal/server"
)

// errorBody mirrors the replicas' JSON error schema so clients see one
// vocabulary regardless of which tier refused them.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// refuseIfDraining sheds new work once Drain flipped the coordinator.
func (c *Coordinator) refuseIfDraining(w http.ResponseWriter) bool {
	if !c.Draining() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "coordinator is draining")
	return true
}

// routeKey derives the consistent-hash key for an upload: the canonical
// formula hash when the body decodes through server.DecodeUpload (the
// replicas' own decoder and expansion cap) and parses as DIMACS, else a
// digest of the raw bytes prefixed "raw:", so malformed uploads,
// unsupported encodings and gzip bombs still route deterministically
// (their 4xx answers come from one replica, not all of them). The body is
// forwarded as the original bytes either way.
func routeKey(body []byte, contentEncoding string, maxBytes int64) string {
	if text, err := server.DecodeUpload(body, contentEncoding, maxBytes); err == nil {
		if f, err := cnf.Parse(text); err == nil {
			return server.CanonicalHash(f)
		}
	}
	sum := sha256.Sum256(body)
	return "raw:" + hex.EncodeToString(sum[:])
}

// uploadKey is routeKey behind the route-key memo: a byte-identical
// repeat of an upload keyed canonically before routes by the remembered
// key without gunzip, parse or hash. Raw-digest keys are not memoized;
// recomputing one costs no more than the lookup.
func (c *Coordinator) uploadKey(body []byte, contentEncoding string) string {
	digest := server.UploadDigest(contentEncoding, body)
	if key, ok := c.routeKeys.Get(digest); ok {
		c.m.routeKeys("hit").Inc()
		return key
	}
	c.m.routeKeys("miss").Inc()
	key := routeKey(body, contentEncoding, c.cfg.MaxBodyBytes)
	if !strings.HasPrefix(key, "raw:") {
		c.routeKeys.Put(digest, key)
	}
	return key
}

// handleHashRouted proxies one body-carrying POST to the routing key's
// backend, failing over along the key's ring order when a backend dies
// mid-request (transport error before any response bytes — the request
// was not processed, so re-sending is safe; an HTTP error status is a
// processed answer and is returned as-is).
func (c *Coordinator) handleHashRouted(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.refuseIfDraining(w) {
			return
		}
		body, ok := c.readBody(w, r)
		if !ok {
			return
		}
		key := c.uploadKey(body, r.Header.Get("Content-Encoding"))
		first := true
		for _, name := range c.ring.Order(key) {
			b := c.backends[name]
			if b == nil || !b.up.Load() {
				continue
			}
			if !first {
				c.m.retries.Inc()
			}
			first = false
			resp, err := c.forward(r, b, r.Method, r.URL.Path, body)
			if err != nil {
				if clientGone(r, err) {
					// The client hung up, not the backend: nobody is
					// listening for a response, and retrying with a
					// canceled context would fail on every backend.
					return
				}
				// No response bytes: the backend never processed the
				// request. Mark it down and try the key's next preference.
				c.noteTransportFailure(b)
				continue
			}
			c.m.routed(b.name, endpoint).Inc()
			c.recordRoute(endpoint, b, c.copyResponse(w, resp, b))
			return
		}
		writeError(w, http.StatusBadGateway, "no live backend for this request")
	}
}

// readBody buffers a request body up to MaxBodyBytes, answering 413 past
// the cap (in the replicas' words) and 400 on any other read failure.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", c.cfg.MaxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// recordRoute files the id → backend affinity a creating endpoint's
// response establishes (202/200 job submits, 201/200 session creates).
func (c *Coordinator) recordRoute(endpoint string, b *backend, respBody []byte) {
	if len(respBody) == 0 {
		return
	}
	var v struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(respBody, &v) != nil || v.ID == "" {
		return
	}
	switch endpoint {
	case "jobs":
		c.jobRoute.Put(v.ID, b.name)
	case "session-create":
		c.sessRoute.Put(v.ID, b.name)
	}
}

// handleJobGet proxies GET /v1/jobs/{id}: the mapped backend first, then
// a scatter probe of the remaining live backends (a 404 from one replica
// only means "not mine" — the id may live elsewhere after a coordinator
// restart). Reads are idempotent, so transport failures fail over.
func (c *Coordinator) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if c.refuseIfDraining(w) {
		return
	}
	id := r.PathValue("id")
	resp, b, ok := c.fetchByID(r, c.jobRoute, id, "/v1/jobs/"+id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	c.m.routed(b.name, "poll").Inc()
	c.jobRoute.Put(id, b.name)
	c.copyResponse(w, resp, b)
}

// fetchByID resolves an id-addressed lookup: the affinity-mapped
// backend first (if live), then every other live backend in ring order.
// Probes are always sent as GETs — the original request may be a POST or
// DELETE, and a probe must only ask "is this id yours?", never execute
// the operation on a guessed owner. Only a 2xx answer, or a 409 (busy:
// only an id's owner can say so), counts as ownership evidence (a 405
// or 500 is not "found", and recording it would poison the affinity
// map); nothing but misses reports not-found.
func (c *Coordinator) fetchByID(r *http.Request, m *routeMap, id, path string) (*http.Response, *backend, bool) {
	var cands []*backend
	if name, ok := m.Get(id); ok {
		if b := c.backends[name]; b != nil && b.up.Load() {
			cands = append(cands, b)
		}
	}
	for _, b := range c.liveBackends() {
		if len(cands) > 0 && b == cands[0] {
			continue
		}
		cands = append(cands, b)
	}
	first := true
	for _, b := range cands {
		if !first {
			c.m.retries.Inc()
		}
		first = false
		resp, err := c.forward(r, b, http.MethodGet, path, nil)
		if err != nil {
			if clientGone(r, err) {
				return nil, nil, false
			}
			c.noteTransportFailure(b)
			continue
		}
		if (resp.StatusCode < 200 || resp.StatusCode >= 300) && resp.StatusCode != http.StatusConflict {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			continue
		}
		return resp, b, true
	}
	return nil, nil, false
}

// handleJobEvents proxies the SSE stream. The job's owner is resolved
// like a poll (affinity map, then scatter via GET /v1/jobs/{id}), then
// the stream is copied chunk-by-chunk with an explicit flush after every
// read so frames and `: hb` heartbeats pass through unbuffered. A
// mid-stream backend death ends the stream — the client resumes with
// Last-Event-ID exactly as it would against the replica directly.
func (c *Coordinator) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if c.refuseIfDraining(w) {
		return
	}
	id := r.PathValue("id")
	owner, ok := c.resolveOwner(r, c.jobRoute, id, "/v1/jobs/"+id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	resp, err := c.forward(r, owner, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		if !clientGone(r, err) {
			c.noteTransportFailure(owner)
		}
		writeError(w, http.StatusBadGateway, "backend unreachable")
		return
	}
	defer resp.Body.Close()
	c.m.routed(owner.name, "events").Inc()
	copyHeaders(w, resp, owner)
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// resolveOwner finds which live backend holds an id, consulting the
// affinity map first and scatter-probing with a GET otherwise.
func (c *Coordinator) resolveOwner(r *http.Request, m *routeMap, id, probePath string) (*backend, bool) {
	if name, ok := m.Get(id); ok {
		if b := c.backends[name]; b != nil && b.up.Load() {
			return b, true
		}
	}
	resp, b, ok := c.fetchByID(r, m, id, probePath)
	if !ok {
		return nil, false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	m.Put(id, b.name)
	return b, true
}

// handleSessionOp proxies one session-addressed operation with strict
// affinity: the session's warm solver state exists on exactly one
// replica, so there is no failover — if that replica is down, the
// operation fails and the client recreates the session (the same
// contract a single replica's restart gives them).
func (c *Coordinator) handleSessionOp(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.refuseIfDraining(w) {
			return
		}
		id := r.PathValue("id")
		owner, ok := c.resolveOwner(r, c.sessRoute, id, "/v1/sessions/"+id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown session id")
			return
		}
		var body []byte
		if r.Body != nil && r.ContentLength != 0 {
			if body, ok = c.readBody(w, r); !ok {
				return
			}
		}
		resp, err := c.forward(r, owner, r.Method, r.URL.Path, body)
		if err != nil {
			if !clientGone(r, err) {
				c.noteTransportFailure(owner)
			}
			writeError(w, http.StatusBadGateway, "session backend unreachable; recreate the session")
			return
		}
		c.m.routed(owner.name, endpoint).Inc()
		ok2xx := resp.StatusCode >= 200 && resp.StatusCode < 300
		c.copyResponse(w, resp, owner)
		if endpoint == "session-delete" && ok2xx {
			c.sessRoute.Delete(id)
		}
	}
}

// clientGone reports whether a forward error is the client's doing —
// the inbound request context was canceled (disconnect mid-request) —
// rather than a backend transport failure. Such errors must not eject
// the backend or trigger failover: the backend is healthy, and a retry
// with a canceled context would fail on every ring member in turn,
// cascade-ejecting the whole cluster over one abandoned request.
func clientGone(r *http.Request, err error) bool {
	return r.Context().Err() != nil || errors.Is(err, context.Canceled)
}

// forward sends one proxied request to a backend: the given method (the
// inbound method for real proxying, an explicit GET for ownership
// probes), path and query, a re-sendable buffered body, and the headers
// that matter — content negotiation, SSE resume position, and the
// correlation id the coordinator's middleware established.
func (c *Coordinator) forward(r *http.Request, b *backend, method, path string, body []byte) (*http.Response, error) {
	u := *b.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = r.URL.RawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Content-Encoding", "Accept", "Accept-Encoding", "Last-Event-ID"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if id := server.RequestIDFrom(r.Context()); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	return c.client.Do(req)
}

// copyResponse relays a buffered (non-streaming) backend response:
// headers, status, body. A response beyond MaxBodyBytes is refused with
// a 502 — relaying a truncated body under the backend's Content-Length
// would leave the client hanging mid-read. Returns the body bytes so
// creating endpoints can mine the resource id for the affinity maps.
func (c *Coordinator) copyResponse(w http.ResponseWriter, resp *http.Response, b *backend) []byte {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadGateway, "read backend response: "+err.Error())
		return nil
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("backend response exceeds %d bytes", c.cfg.MaxBodyBytes))
		return nil
	}
	copyHeaders(w, resp, b)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
	return body
}

// hopByHop are the headers a proxy must not relay (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Connection": true,
	"Transfer-Encoding": true, "Upgrade": true, "Te": true, "Trailer": true,
}

// copyHeaders relays the backend's response headers (minus hop-by-hop)
// and guarantees X-Backend is present: replicas in backend mode set it
// themselves; for a plain replica the coordinator fills in the ring name
// so routing is always observable.
func copyHeaders(w http.ResponseWriter, resp *http.Response, b *backend) {
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		h[http.CanonicalHeaderKey(k)] = vs
	}
	if h.Get("X-Backend") == "" {
		h.Set("X-Backend", b.name)
	}
}
