package cluster

// End-to-end coordinator tests against real internal/server replicas:
// two backend-mode servers behind one coordinator, all over httptest
// listeners. These exercise the full proxy surface — hash-routed solves
// with cache stickiness, failover after a backend death, job submit /
// poll / SSE routing, session affinity, and request-id threading.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/server"
)

const (
	// testCNFSat and testCNFUnsat are two tiny instances whose canonical
	// hashes (in practice) land on different replicas often enough that
	// the tests can always find one formula owned by each backend.
	testCNFSat   = "p cnf 3 2\n1 -3 0\n2 3 -1 0\n"
	testCNFUnsat = "p cnf 1 2\n1 0\n-1 0\n"
)

// testCluster is two live replicas and a coordinator in front of them.
type testCluster struct {
	t        *testing.T
	svcs     []*server.Server
	backends []*httptest.Server
	coord    *Coordinator
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	var urls []string
	for i := 0; i < n; i++ {
		svc, err := server.New(server.Config{
			Workers:     2,
			BackendName: fmt.Sprintf("r%d", i+1),
			MaxTimeout:  10 * time.Second,
		})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ts := httptest.NewServer(svc.Handler())
		tc.svcs = append(tc.svcs, svc)
		tc.backends = append(tc.backends, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := New(Config{
		Replicas:      urls,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		coord.Close()
		for i, ts := range tc.backends {
			ts.Close()
			tc.svcs[i].Close()
		}
	})
	return tc
}

func (tc *testCluster) solve(cnfBody string) *http.Response {
	tc.t.Helper()
	resp, err := http.Post(tc.front.URL+"/v1/solve", "text/plain", strings.NewReader(cnfBody))
	if err != nil {
		tc.t.Fatalf("POST /v1/solve: %v", err)
	}
	return resp
}

func drainBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

// TestCoordinatorStickiness: the same formula twice routes to the same
// backend and the second answer is that backend's cache hit; a solve is
// correct end to end through the proxy.
func TestCoordinatorStickiness(t *testing.T) {
	tc := newTestCluster(t, 2)

	r1 := tc.solve(testCNFSat)
	b1 := drainBody(t, r1)
	if r1.StatusCode != 200 {
		t.Fatalf("first solve: %d %s", r1.StatusCode, b1)
	}
	var res struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b1, &res); err != nil || res.Status != "SAT" {
		t.Fatalf("first solve status %q (err %v), want SAT", res.Status, err)
	}
	be1 := r1.Header.Get("X-Backend")
	if be1 == "" {
		t.Fatal("first solve carried no X-Backend")
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first solve X-Cache %q, want miss", got)
	}

	r2 := tc.solve(testCNFSat)
	drainBody(t, r2)
	if got := r2.Header.Get("X-Backend"); got != be1 {
		t.Fatalf("second solve routed to %q, want sticky %q", got, be1)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second solve X-Cache %q, want hit", got)
	}
}

// TestCoordinatorFailover: killing a formula's owner reroutes the next
// identical request to the survivor (one retry, fresh solve).
func TestCoordinatorFailover(t *testing.T) {
	tc := newTestCluster(t, 2)

	r1 := tc.solve(testCNFUnsat)
	drainBody(t, r1)
	owner := r1.Header.Get("X-Backend")

	// Kill the owner's listener abruptly (no drain — a crash).
	killed := false
	for i, ts := range tc.backends {
		if owner == fmt.Sprintf("r%d", i+1) {
			ts.CloseClientConnections()
			ts.Close()
			killed = true
		}
	}
	if !killed {
		t.Fatalf("could not match owner %q to a test backend", owner)
	}

	r2 := tc.solve(testCNFUnsat)
	b2 := drainBody(t, r2)
	if r2.StatusCode != 200 {
		t.Fatalf("failover solve: %d %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Backend"); got == owner || got == "" {
		t.Fatalf("failover solve routed to %q, want the survivor (owner %q is dead)", got, owner)
	}
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("failover solve X-Cache %q, want miss (survivor solved fresh)", got)
	}
}

// TestCoordinatorJobs: submit through the coordinator, poll through the
// coordinator — the poll reaches the submitting backend even though job
// ids are per-replica. Unknown ids 404.
func TestCoordinatorJobs(t *testing.T) {
	tc := newTestCluster(t, 2)

	resp, err := http.Post(tc.front.URL+"/v1/jobs", "text/plain", strings.NewReader(testCNFSat))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	body := drainBody(t, resp)
	if resp.StatusCode != 200 && resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	submitBackend := resp.Header.Get("X-Backend")
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s: no id (err %v)", body, err)
	}
	if !strings.HasPrefix(sub.ID, submitBackend+"-") {
		t.Fatalf("job id %q does not carry backend prefix %q-", sub.ID, submitBackend)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		pr, err := http.Get(tc.front.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		pb := drainBody(t, pr)
		if pr.StatusCode != 200 {
			t.Fatalf("poll: %d %s", pr.StatusCode, pb)
		}
		if got := pr.Header.Get("X-Backend"); got != submitBackend {
			t.Fatalf("poll routed to %q, want %q", got, submitBackend)
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(pb, &v); err != nil {
			t.Fatalf("poll body %s: %v", pb, err)
		}
		if v.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", pb)
		}
		time.Sleep(10 * time.Millisecond)
	}

	nf, err := http.Get(tc.front.URL + "/v1/jobs/r1-j99999999")
	if err != nil {
		t.Fatalf("poll unknown: %v", err)
	}
	drainBody(t, nf)
	if nf.StatusCode != 404 {
		t.Fatalf("unknown job id: %d, want 404", nf.StatusCode)
	}
}

// TestCoordinatorJobEvents: the SSE stream proxies through to the
// owning backend and terminates with the standard done event.
func TestCoordinatorJobEvents(t *testing.T) {
	tc := newTestCluster(t, 2)

	resp, err := http.Post(tc.front.URL+"/v1/jobs", "text/plain", strings.NewReader(testCNFUnsat))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	body := drainBody(t, resp)
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s (err %v)", body, err)
	}

	es, err := http.Get(tc.front.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer es.Body.Close()
	if es.StatusCode != 200 {
		t.Fatalf("events: %d", es.StatusCode)
	}
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	sawDone := false
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
}

// TestCoordinatorSessions: create/step/info/delete all land on the
// session's owning backend; the id carries its prefix; a deleted or
// unknown session 404s.
func TestCoordinatorSessions(t *testing.T) {
	tc := newTestCluster(t, 2)

	resp, err := http.Post(tc.front.URL+"/v1/sessions", "text/plain", strings.NewReader(testCNFSat))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	body := drainBody(t, resp)
	if resp.StatusCode != 200 && resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	owner := resp.Header.Get("X-Backend")
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sess); err != nil || sess.ID == "" {
		t.Fatalf("create body %s (err %v)", body, err)
	}
	if !strings.HasPrefix(sess.ID, owner+"-") {
		t.Fatalf("session id %q does not carry owner prefix %q-", sess.ID, owner)
	}

	step, err := http.Post(tc.front.URL+"/v1/sessions/"+sess.ID+"/solve",
		"application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	sb := drainBody(t, step)
	if step.StatusCode != 200 {
		t.Fatalf("step: %d %s", step.StatusCode, sb)
	}
	if got := step.Header.Get("X-Backend"); got != owner {
		t.Fatalf("step routed to %q, want owner %q", got, owner)
	}

	info, err := http.Get(tc.front.URL + "/v1/sessions/" + sess.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	drainBody(t, info)
	if info.StatusCode != 200 || info.Header.Get("X-Backend") != owner {
		t.Fatalf("info: %d via %q, want 200 via %q", info.StatusCode, info.Header.Get("X-Backend"), owner)
	}

	req, _ := http.NewRequest(http.MethodDelete, tc.front.URL+"/v1/sessions/"+sess.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	drainBody(t, del)
	if del.StatusCode != 200 && del.StatusCode != 204 {
		t.Fatalf("delete: %d", del.StatusCode)
	}

	gone, err := http.Get(tc.front.URL + "/v1/sessions/" + sess.ID)
	if err != nil {
		t.Fatalf("info after delete: %v", err)
	}
	drainBody(t, gone)
	if gone.StatusCode != 404 {
		t.Fatalf("info after delete: %d, want 404", gone.StatusCode)
	}
}

// TestCoordinatorSessionAffinityMiss: after the coordinator loses its
// session-id → backend mapping (restart, LRU eviction), a session step
// and a session delete still reach the true owner. The scatter probe
// must be a side-effect-free GET accepted only on 2xx — forwarding the
// original POST/DELETE would draw a 405 from non-owners (poisoning the
// map with the first replica in ring order) or execute the delete
// during the probe and then report 404 for the re-sent operation.
func TestCoordinatorSessionAffinityMiss(t *testing.T) {
	tc := newTestCluster(t, 2)

	// Find a session owned by a backend that is NOT first in scatter
	// order, so a method-forwarding probe would hit a non-owner first.
	scatterFirst := tc.coord.liveBackends()[0].name
	var sessID, owner string
	for k := 1; k <= 64 && sessID == ""; k++ {
		body := fmt.Sprintf("p cnf %d 1\n%d 0\n", k, k)
		resp, err := http.Post(tc.front.URL+"/v1/sessions", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		b := drainBody(t, resp)
		if resp.StatusCode != 200 && resp.StatusCode != 201 {
			t.Fatalf("create: %d %s", resp.StatusCode, b)
		}
		var sess struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(b, &sess); err != nil || sess.ID == "" {
			t.Fatalf("create body %s (err %v)", b, err)
		}
		if be := resp.Header.Get("X-Backend"); be != scatterFirst {
			sessID, owner = sess.ID, be
		}
	}
	if sessID == "" {
		t.Fatalf("no session landed off the scatter-first backend %q", scatterFirst)
	}

	// Simulate a coordinator restart: forget the session's owner.
	tc.coord.sessRoute.Delete(sessID)
	step, err := http.Post(tc.front.URL+"/v1/sessions/"+sessID+"/solve",
		"application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	sb := drainBody(t, step)
	if step.StatusCode != 200 {
		t.Fatalf("step after affinity miss: %d %s", step.StatusCode, sb)
	}
	if got := step.Header.Get("X-Backend"); got != owner {
		t.Fatalf("step after affinity miss routed to %q, want owner %q", got, owner)
	}

	// Forget again, then delete: the probe must not consume the delete.
	tc.coord.sessRoute.Delete(sessID)
	req, _ := http.NewRequest(http.MethodDelete, tc.front.URL+"/v1/sessions/"+sessID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	drainBody(t, del)
	if del.StatusCode != 200 && del.StatusCode != 204 {
		t.Fatalf("delete after affinity miss: %d", del.StatusCode)
	}
	gone, err := http.Get(tc.front.URL + "/v1/sessions/" + sessID)
	if err != nil {
		t.Fatalf("info after delete: %v", err)
	}
	drainBody(t, gone)
	if gone.StatusCode != 404 {
		t.Fatalf("info after delete: %d, want 404", gone.StatusCode)
	}
}

// TestCoordinatorBusySessionAfterAffinityMiss: while a step runs, the
// session's owner answers every other request for it with 409 (busy),
// which only the owner can say. After the coordinator loses the session's
// owner, that 409 must count as ownership: an info request and a second
// step answer the owner's 409, not a 404 "unknown session id" that tells
// the client to throw away a live session.
func TestCoordinatorBusySessionAfterAffinityMiss(t *testing.T) {
	tc := newTestCluster(t, 2)
	var php bytes.Buffer
	if err := cnf.WriteDIMACS(&php, gen.Pigeonhole(10).F); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.front.URL+"/v1/sessions", "text/plain", &php)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	body := drainBody(t, resp)
	if resp.StatusCode != 200 && resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	owner := resp.Header.Get("X-Backend")
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sess); err != nil || sess.ID == "" {
		t.Fatalf("create body %s (err %v)", body, err)
	}
	infoURL := tc.front.URL + "/v1/sessions/" + sess.ID
	step := func() (*http.Response, error) {
		return http.Post(infoURL+"/solve", "application/json", strings.NewReader(`{"timeout":"3s"}`))
	}

	first := make(chan int, 1)
	go func() {
		resp, err := step()
		if err != nil {
			first <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	for deadline := time.Now().Add(2 * time.Second); ; {
		resp, err := http.Get(infoURL)
		if err != nil {
			t.Fatalf("info: %v", err)
		}
		drainBody(t, resp)
		if resp.StatusCode == http.StatusConflict {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never answered busy through the coordinator; last %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, op := range []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"info", func() (*http.Response, error) { return http.Get(infoURL) }},
		{"step", step},
	} {
		tc.coord.sessRoute.Delete(sess.ID)
		resp, err := op.do()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		b := drainBody(t, resp)
		if resp.StatusCode != http.StatusConflict || resp.Header.Get("X-Backend") != owner {
			t.Errorf("%s after affinity miss: %d via %q (%s), want 409 via owner %q",
				op.name, resp.StatusCode, resp.Header.Get("X-Backend"), b, owner)
		}
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("first step answered %d, want 200", code)
	}
}

// TestCoordinatorClientCancelKeepsBackendsUp: a client disconnecting
// mid-request (canceled inbound context) must not eject backends —
// before the clientGone guard, one abandoned request could cascade the
// canceled context across every ring member and mark the whole cluster
// down.
func TestCoordinatorClientCancelKeepsBackendsUp(t *testing.T) {
	tc := newTestCluster(t, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		tc.front.URL+"/v1/solve", strings.NewReader(testCNFSat))
	rec := httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, req)

	for name, b := range tc.coord.backends {
		if !b.up.Load() {
			t.Fatalf("backend %s ejected by a client-canceled request", name)
		}
	}
}

// TestRouteKeyAgreesWithReplicaHash pins the coordinator's routing key
// to the replica's cache key: every upload a replica accepts — raw,
// gzipped, or with its clauses reordered — routes by CanonicalHash of the
// formula the replica parses, decoded through the same server.DecodeBody.
// Uploads the replica refuses (a gzip bomb past the cap, an unsupported
// encoding, malformed DIMACS) route by the raw-bytes digest, the same
// key on every call.
func TestRouteKeyAgreesWithReplicaHash(t *testing.T) {
	const max = 4096
	gzipped := func(s string) []byte {
		var buf bytes.Buffer
		gw := gzip.NewWriter(&buf)
		if _, err := io.WriteString(gw, s); err != nil {
			t.Fatal(err)
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// replicaKey is what a replica hashes: readBody's decode, then parse.
	replicaKey := func(body []byte, enc string) string {
		src, err := server.DecodeBody(bytes.NewReader(body), enc, max)
		if err != nil {
			t.Fatalf("replica refuses the upload: %v", err)
		}
		plain, err := io.ReadAll(src)
		if err != nil {
			t.Fatalf("replica refuses the upload: %v", err)
		}
		f, err := cnf.ParseDIMACS(bytes.NewReader(plain))
		if err != nil {
			t.Fatalf("replica refuses the upload: %v", err)
		}
		return server.CanonicalHash(f)
	}
	reordered := "p cnf 3 2\n3 -1 2 0\n-3 1 0\n"                   // testCNFSat, clauses and literals permuted
	bomb := "p cnf 2 1000000\n" + strings.Repeat("1 2 0\n", 2*max) // valid DIMACS, expands past max

	want := replicaKey([]byte(testCNFSat), "")
	for _, tc := range []struct {
		name string
		body []byte
		enc  string
		raw  bool
	}{
		{name: "raw", body: []byte(testCNFSat)},
		{name: "identity", body: []byte(testCNFSat), enc: "identity"},
		{name: "gzip", body: gzipped(testCNFSat), enc: "gzip"},
		{name: "gzip upper-case", body: gzipped(testCNFSat), enc: "GZIP"},
		{name: "reordered", body: []byte(reordered)},
		{name: "reordered gzip", body: gzipped(reordered), enc: "gzip"},
		{name: "gzip bomb", body: gzipped(bomb), enc: "gzip", raw: true},
		{name: "unsupported encoding", body: []byte(testCNFSat), enc: "zstd", raw: true},
		{name: "malformed DIMACS", body: []byte("p cnf 2 1\n1 x 0\n"), raw: true},
		{name: "corrupt gzip", body: []byte(testCNFSat), enc: "gzip", raw: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := routeKey(tc.body, tc.enc, max)
			if again := routeKey(tc.body, tc.enc, max); again != key {
				t.Fatalf("routeKey not deterministic: %q then %q", key, again)
			}
			if tc.raw {
				sum := sha256.Sum256(tc.body)
				if rawKey := "raw:" + hex.EncodeToString(sum[:]); key != rawKey {
					t.Fatalf("routed by %q, want the raw digest %q", key, rawKey)
				}
				return
			}
			if got := replicaKey(tc.body, tc.enc); got != want {
				t.Fatalf("replica hash %q differs from the plain upload's %q", got, want)
			}
			if key != want {
				t.Fatalf("route key %q != replica hash %q", key, want)
			}
		})
	}
}

// TestCoordinatorHealthDegraded: with every backend ejected the
// coordinator's own /healthz flips to 503 degraded, so an upstream load
// balancer stops sending traffic to a coordinator that can only 502.
func TestCoordinatorHealthDegraded(t *testing.T) {
	tc := newTestCluster(t, 2)
	for _, ts := range tc.backends {
		ts.CloseClientConnections()
		ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz, err := http.Get(tc.front.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		body := string(drainBody(t, hz))
		if hz.StatusCode == 503 && strings.HasPrefix(body, "degraded\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never degraded: %d %q", hz.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorRequestID: a client-supplied X-Request-ID is echoed by
// the coordinator and forwarded to the replica (whose response headers
// pass back through the proxy).
func TestCoordinatorRequestID(t *testing.T) {
	tc := newTestCluster(t, 2)
	req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/v1/solve", strings.NewReader(testCNFSat))
	req.Header.Set("X-Request-ID", "cluster-e2e-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	drainBody(t, resp)
	if got := resp.Header.Get("X-Request-ID"); got != "cluster-e2e-42" {
		t.Fatalf("X-Request-ID %q, want the client's id", got)
	}
}

// TestCoordinatorHealth: the coordinator's healthz lists every backend,
// flips to 503 on Drain, and reflects a dead backend once the prober
// notices.
func TestCoordinatorHealth(t *testing.T) {
	tc := newTestCluster(t, 2)

	hz, err := http.Get(tc.front.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body := string(drainBody(t, hz))
	if hz.StatusCode != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("healthz: %d %q", hz.StatusCode, body)
	}
	if strings.Count(body, "backend ") != 2 || !strings.Contains(body, " up\n") {
		t.Fatalf("healthz body missing backend lines: %q", body)
	}

	// Kill backend 0 and wait for the prober to eject it.
	tc.backends[0].CloseClientConnections()
	tc.backends[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz, err := http.Get(tc.front.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		body = string(drainBody(t, hz))
		if strings.Contains(body, " down\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never ejected the dead backend: %q", body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	tc.coord.Drain()
	hz, err = http.Get(tc.front.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body = string(drainBody(t, hz))
	if hz.StatusCode != 503 || !strings.HasPrefix(body, "draining\n") {
		t.Fatalf("draining healthz: %d %q", hz.StatusCode, body)
	}
	// Data plane refuses during drain.
	sr := tc.solve(testCNFSat)
	drainBody(t, sr)
	if sr.StatusCode != 503 {
		t.Fatalf("solve while draining: %d, want 503", sr.StatusCode)
	}
}

// TestConfigDefaults pins the coordinator's defaults: what New fills into
// an unset Config, and the constants behind the settings it has no field
// for.
func TestConfigDefaults(t *testing.T) {
	c, err := New(Config{Replicas: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"probe interval", c.cfg.ProbeInterval, 2 * time.Second},
		{"probe timeout", c.cfg.ProbeTimeout, time.Second},
		{"fail threshold", failThreshold, 2},
		{"max body", c.cfg.MaxBodyBytes, int64(64 << 20)},
		{"route cap", routeCap, 4096},
		{"ring points per backend", len(c.ring.points) / len(c.ring.Backends()), 128},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}
