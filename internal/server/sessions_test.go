package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/solver"
)

// chainCNF is an implication chain 1→2→3→4 with nothing else: under
// assumptions on variable 1 the model is forced bit for bit, so warm and
// cold solves must agree exactly, not just on status.
const chainCNF = "p cnf 4 3\n-1 2 0\n-2 3 0\n-3 4 0\n"

func createSession(t *testing.T, url, body, query string) sessionCreateResponse {
	t.Helper()
	resp := post(t, url+"/v1/sessions"+query, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("create session: status %d: %s", resp.StatusCode, raw)
	}
	var cr sessionCreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func sessionSolve(t *testing.T, url, id string, req sessionSolveRequest) (sessionSolveResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sessions/"+id+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr sessionSolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

func deleteSession(t *testing.T, url, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestSessionMatchesColdSolve drives the incremental session through
// solves that a stateless /v1/solve answers too, and requires identical
// status and (on the forced chain) identical models.
func TestSessionMatchesColdSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cr := createSession(t, ts.URL, chainCNF, "")
	if cr.Pool != "miss" {
		t.Errorf("first create pool = %q, want miss", cr.Pool)
	}
	for _, as := range [][]int{{1}, {-4}, {1, 4}} {
		warm, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: as})
		if code != http.StatusOK {
			t.Fatalf("session solve: status %d", code)
		}
		// Cold reference: the chain plus the assumptions as unit clauses.
		var sb strings.Builder
		fmt.Fprintf(&sb, "p cnf 4 %d\n-1 2 0\n-2 3 0\n-3 4 0\n", 3+len(as))
		for _, a := range as {
			fmt.Fprintf(&sb, "%d 0\n", a)
		}
		cold, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", sb.String()))
		if warm.Status != cold.Status {
			t.Fatalf("assume %v: warm %s vs cold %s", as, warm.Status, cold.Status)
		}
		if warm.Status == "SAT" && as[0] == 1 {
			// Assuming 1 forces 2,3,4: the model is unique, so warm and
			// cold must agree literal for literal.
			for i, l := range warm.Model {
				if cold.Model[i] != l {
					t.Fatalf("assume %v: model diverges at %d: warm %v cold %v", as, i, warm.Model, cold.Model)
				}
			}
		}
	}
}

// TestSessionIncrementalClausesAndCores adds clauses between solves and
// checks UNSAT cores arrive and models respect the additions.
func TestSessionIncrementalClausesAndCores(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	// Permanently force ¬4: assuming 1 now propagates to a contradiction.
	sr, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{
		Add:         [][]int{{-4}},
		Assumptions: []int{1},
	})
	if code != http.StatusOK || sr.Status != "UNSAT" {
		t.Fatalf("status %d %s, want 200 UNSAT", code, sr.Status)
	}
	if len(sr.Core) != 1 || sr.Core[0] != 1 {
		t.Fatalf("core = %v, want [1]", sr.Core)
	}
	// Without the assumption the formula stays SAT with 4 false.
	sr, _ = sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{})
	if sr.Status != "SAT" {
		t.Fatalf("status %s, want SAT", sr.Status)
	}
	for _, l := range sr.Model {
		if l == 4 {
			t.Fatalf("model %v violates added clause -4", sr.Model)
		}
	}
	if sr.Stats.AddedClauses != 1 {
		t.Errorf("added_clauses = %d, want 1", sr.Stats.AddedClauses)
	}
}

// TestSessionPushPopOverHTTP opens a frame, adds a contradiction under it,
// and retracts it with pop — all through the JSON step schema.
func TestSessionPushPopOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	sr, _ := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{
		Push: 1,
		Add:  [][]int{{1}, {-4}},
	})
	if sr.Status != "UNSAT" || sr.FrameDepth != 1 {
		t.Fatalf("frame solve: %s depth %d, want UNSAT depth 1", sr.Status, sr.FrameDepth)
	}
	if len(sr.Core) != 0 {
		t.Errorf("frame-only UNSAT core = %v, want empty", sr.Core)
	}
	sr, _ = sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Pop: 1, Assumptions: []int{1}})
	if sr.Status != "SAT" || sr.FrameDepth != 0 {
		t.Fatalf("after pop: %s depth %d, want SAT depth 0", sr.Status, sr.FrameDepth)
	}
	// Popping with no frame open is a client error.
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Pop: 1}); code != http.StatusBadRequest {
		t.Errorf("pop on empty frame stack: status %d, want 400", code)
	}
}

// TestSessionPoolReuse checks the warm-pool cycle: delete parks the
// solver, an identical create takes it back (pool hit), and a session that
// extended its base formula is never parked.
func TestSessionPoolReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: []int{1}}); code != 200 {
		t.Fatal("warmup solve failed")
	}
	if code := deleteSession(t, ts.URL, cr.ID); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if got := s.pool.Len(); got != 1 {
		t.Fatalf("pool size after park = %d, want 1", got)
	}
	// Same base formula in a different clause order: the canonical hash
	// must still match and resume the parked solver.
	reordered := "p cnf 4 3\n-3 4 0\n2 -1 0\n-2 3 0\n"
	cr2 := createSession(t, ts.URL, reordered, "")
	if cr2.Pool != "hit" {
		t.Fatalf("re-create pool = %q, want hit", cr2.Pool)
	}
	if got := s.pool.Len(); got != 0 {
		t.Fatalf("pool size after take = %d, want 0", got)
	}
	// Extend the base: this session must be dropped on delete, not parked.
	if _, code := sessionSolve(t, ts.URL, cr2.ID, sessionSolveRequest{Add: [][]int{{-4}}}); code != 200 {
		t.Fatal("extend solve failed")
	}
	deleteSession(t, ts.URL, cr2.ID)
	if got := s.pool.Len(); got != 0 {
		t.Fatalf("extended session was parked: pool size %d, want 0", got)
	}
	// A fresh create after the drop is a miss again.
	if cr3 := createSession(t, ts.URL, chainCNF, ""); cr3.Pool != "miss" {
		t.Errorf("create after drop: pool = %q, want miss", cr3.Pool)
	}
}

// TestSessionIdleTTLExpiry pins the satellite requirement: a session idle
// past -session-ttl is evicted and later requests see 404.
func TestSessionIdleTTLExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SessionTTL: 80 * time.Millisecond})
	cr := createSession(t, ts.URL, chainCNF, "")
	deadline := time.Now().Add(5 * time.Second)
	for s.sessions.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not expire within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{}); code != http.StatusNotFound {
		t.Fatalf("solve on expired session: status %d, want 404", code)
	}
	// Expiry parks the still-clean warm solver; the parked entry then
	// ages out of the pool by the same TTL.
	if got := s.pool.Len(); got != 1 {
		t.Errorf("pool after expiry = %d, want 1", got)
	}
	for s.pool.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked pool entry did not expire within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionLRUEviction fills the table past SessionMax and checks the
// oldest idle session made way.
func TestSessionLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SessionMax: 2})
	a := createSession(t, ts.URL, chainCNF, "")
	b := createSession(t, ts.URL, satCNF, "")
	// Touch a so b becomes the LRU victim.
	if _, code := sessionSolve(t, ts.URL, a.ID, sessionSolveRequest{}); code != 200 {
		t.Fatal("touch solve failed")
	}
	c := createSession(t, ts.URL, unsatCNF, "")
	if _, code := sessionSolve(t, ts.URL, b.ID, sessionSolveRequest{}); code != http.StatusNotFound {
		t.Fatalf("evicted session b: status %d, want 404", code)
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, code := sessionSolve(t, ts.URL, id, sessionSolveRequest{}); code != 200 {
			t.Fatalf("surviving session %s: status %d, want 200", id, code)
		}
	}
}

// TestSessionMemoryCap forces an absurdly small footprint budget and
// checks the session is closed after answering.
func TestSessionMemoryCap(t *testing.T) {
	// The smallest cap that admits the chain's 4 variables at create; the
	// solve's clause arena then pushes the footprint past it.
	_, ts := newTestServer(t, Config{Workers: 1, SessionMaxMem: solver.VarFootprint(4)})
	cr := createSession(t, ts.URL, chainCNF, "")
	sr, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{})
	if code != http.StatusOK || sr.Status != "SAT" {
		t.Fatalf("capped solve still answers: status %d %s", code, sr.Status)
	}
	if !sr.Evicted {
		t.Fatal("response did not flag the memory-cap eviction")
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{}); code != http.StatusNotFound {
		t.Fatalf("solve after memcap eviction: status %d, want 404", code)
	}
}

// TestSessionBusyConflict holds the session lock and expects 409.
func TestSessionBusyConflict(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	sess, ok := s.sessions.Get(cr.ID, time.Now())
	if !ok {
		t.Fatal("session missing")
	}
	sess.mu.Lock()
	_, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{})
	sess.mu.Unlock()
	if code != http.StatusConflict {
		t.Fatalf("solve on busy session: status %d, want 409", code)
	}
}

// TestSessionInfoAndValidation covers GET /v1/sessions/{id} and the step
// schema's error paths.
func TestSessionInfoAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Add: [][]int{{1, 0}}}); code != 400 {
		t.Errorf("zero literal in clause: status %d, want 400", code)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: []int{0}}); code != 400 {
		t.Errorf("zero literal in assumptions: status %d, want 400", code)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Timeout: "banana"}); code != 400 {
		t.Errorf("bad timeout: status %d, want 400", code)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Pop: -1}); code != 400 {
		t.Errorf("negative pop: status %d, want 400", code)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Push: 2, Add: [][]int{{2}}}); code != 200 {
		t.Fatal("setup solve failed")
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + cr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view sessionView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.ID != cr.ID || view.FrameDepth != 2 || view.Solves != 1 || view.UserVars != 4 {
		t.Errorf("view = %+v, want id %s, depth 2, 1 solve, 4 vars", view, cr.ID)
	}
	if view.FootprintBytes <= 0 || view.AddedClauses != 1 {
		t.Errorf("view footprint/added = %d/%d", view.FootprintBytes, view.AddedClauses)
	}
	resp2, err := http.Get(ts.URL + "/v1/sessions/s99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session info: status %d, want 404", resp2.StatusCode)
	}
}

// TestSessionDrainRefusal starts a drain and checks every session
// operation is refused with 503 while in-flight work still completes.
func TestSessionDrainRefusal(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/sessions", chainCNF)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create during drain: status %d, want 503", resp.StatusCode)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{}); code != http.StatusServiceUnavailable {
		t.Errorf("solve during drain: status %d, want 503", code)
	}
}

// TestSessionTimeoutReturnsUnknown bounds a hard instance and expects
// UNKNOWN with a stop reason instead of a hang, and the session to stay
// usable afterwards.
func TestSessionTimeoutReturnsUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, phpDIMACS(t, 8), "")
	sr, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Timeout: "50ms"})
	if code != http.StatusOK || sr.Status != "UNKNOWN" {
		t.Fatalf("status %d %s, want 200 UNKNOWN", code, sr.Status)
	}
	if sr.Stop != "timeout" {
		t.Errorf("stop = %q, want timeout", sr.Stop)
	}
	// The deadline latch must not poison the next call.
	sr, code = sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: []int{1}, Timeout: "30s"})
	if code != http.StatusOK || sr.Status == "UNKNOWN" {
		t.Fatalf("follow-up solve: status %d %s, want a decided answer", code, sr.Status)
	}
}

// waitSessionBusy polls the session's info endpoint until it answers 409,
// i.e. until a step holds the session.
func waitSessionBusy(t *testing.T, url, id string) {
	t.Helper()
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(url + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusConflict {
			return
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("session never became busy (info status %d)", resp.StatusCode)
		}
	}
}

// stepAsync posts one session step on its own goroutine under ctx. It
// delivers nil when the step answers UNKNOWN with stop canceled, and an
// error otherwise, a transport error included.
func stepAsync(ctx context.Context, url, id string, req sessionSolveRequest) <-chan error {
	out := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(req)
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sessions/"+id+"/solve", bytes.NewReader(body))
		if err != nil {
			out <- err
			return
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			out <- err
			return
		}
		defer resp.Body.Close()
		var sr sessionSolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			out <- err
			return
		}
		if resp.StatusCode != http.StatusOK || sr.Status != "UNKNOWN" || sr.Stop != "canceled" {
			out <- fmt.Errorf("status %d %s stop %q, want 200 UNKNOWN stop canceled", resp.StatusCode, sr.Status, sr.Stop)
			return
		}
		out <- nil
	}()
	return out
}

// TestSessionStepEndsWhenClientLeaves pins that a step solves under its
// request's context: a client that disconnects mid-step frees the session
// within a poll stride instead of leaving it busy (409) until the step's
// timeout.
func TestSessionStepEndsWhenClientLeaves(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, phpDIMACS(t, 10), "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := stepAsync(ctx, ts.URL, cr.ID, sessionSolveRequest{Timeout: "6s"})
	waitSessionBusy(t, ts.URL, cr.ID)
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the canceled client still received an answer")
	}
	left := time.Now()
	for {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + cr.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("session info: status %d", resp.StatusCode)
		}
		if time.Since(left) > time.Second {
			t.Fatal("session still busy 1s after its client left")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: []int{1}, Timeout: "50ms"}); code != http.StatusOK {
		t.Fatalf("next step: status %d, want 200", code)
	}
}

// TestSessionStepEndsWhenServerCloses pins that Server.Close cancels an
// in-flight session step, as it does every other solve: the step answers
// UNKNOWN with stop canceled instead of running on to its timeout.
func TestSessionStepEndsWhenServerCloses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, phpDIMACS(t, 10), "")
	done := stepAsync(context.Background(), ts.URL, cr.ID, sessionSolveRequest{Timeout: "4s"})
	waitSessionBusy(t, ts.URL, cr.ID)
	time.Sleep(300 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("step after Server.Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("step still running 1s after Server.Close")
	}
}

// TestSessionMetrics spot-checks the sessions_active gauge wiring and the
// event counters through a create/hit/park cycle.
func TestSessionMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	if got := s.sessions.Len(); got != 1 {
		t.Fatalf("sessions_active = %d, want 1", got)
	}
	deleteSession(t, ts.URL, cr.ID)
	createSession(t, ts.URL, chainCNF, "")
	var dump bytes.Buffer
	if err := s.Registry().WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`neuroselect_server_session_events_total{event="create"} 2`,
		`neuroselect_server_session_events_total{event="park"} 1`,
		`neuroselect_server_session_events_total{event="hit"} 1`,
		`neuroselect_server_session_events_total{event="miss"} 1`,
		"neuroselect_server_sessions_active 1",
		"neuroselect_server_session_pool_size 0",
	} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestSessionSolveAtomicValidation pins the all-or-nothing step contract:
// a request rejected with 400 must leave the session exactly as it found
// it, even when earlier operations in the request were individually valid.
func TestSessionSolveAtomicValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	// First clause valid, second malformed: neither may commit.
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{
		Add: [][]int{{-4}, {2, 0}},
	}); code != http.StatusBadRequest {
		t.Fatalf("malformed second clause: status %d, want 400", code)
	}
	// Over-pop is checked before the push applies: no frame may open.
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{
		Push: 2, Pop: 3,
	}); code != http.StatusBadRequest {
		t.Fatalf("over-pop: status %d, want 400", code)
	}
	// Over-pop also aborts the whole step before its adds.
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{
		Pop: 1, Add: [][]int{{-4}},
	}); code != http.StatusBadRequest {
		t.Fatalf("over-pop with adds: status %d, want 400", code)
	}
	// Had any rejected operation leaked, -4 would be committed (UNSAT
	// under assumption 1) or a frame would be open.
	sr, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: []int{1}})
	if code != http.StatusOK || sr.Status != "SAT" {
		t.Fatalf("rejected requests leaked clauses: status %d %s, want 200 SAT", code, sr.Status)
	}
	if sr.FrameDepth != 0 {
		t.Fatalf("rejected requests leaked frames: depth %d, want 0", sr.FrameDepth)
	}
}

// TestSessionSolveAfterEvictionRace replays the lookup/evict interleaving
// handlers must survive: the session is looked up, then — before the
// handler takes the session lock — the reaper evicts it and parks its
// solver, and a new session resumes that same solver from the pool. The
// stale handler must observe the removal (Alive) and answer 404 instead
// of driving a solver now owned by the new session.
func TestSessionSolveAfterEvictionRace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	sess, ok := s.sessions.Get(cr.ID, time.Now())
	if !ok {
		t.Fatal("session missing")
	}
	// Evict exactly as the reaper does: remove, then park under the lock.
	victim, ok := s.sessions.Remove(cr.ID)
	if !ok || victim != sess {
		t.Fatal("remove did not return the looked-up session")
	}
	victim.mu.Lock()
	s.closeSession(victim, true)
	victim.mu.Unlock()
	cr2 := createSession(t, ts.URL, chainCNF, "")
	if cr2.Pool != "hit" {
		t.Fatalf("re-create pool = %q, want hit (parked solver resumed)", cr2.Pool)
	}
	if s.sessions.Alive(sess) {
		t.Fatal("evicted session still reports alive")
	}
	if _, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{}); code != http.StatusNotFound {
		t.Fatalf("solve on evicted id: status %d, want 404", code)
	}
	sr, code := sessionSolve(t, ts.URL, cr2.ID, sessionSolveRequest{Assumptions: []int{1}})
	if code != http.StatusOK || sr.Status != "SAT" {
		t.Fatalf("new session on resumed solver: status %d %s, want 200 SAT", code, sr.Status)
	}
}

// TestSessionChurnRace hammers create/solve/delete on one base formula
// with a tiny table and TTL, so LRU eviction, idle expiry, pool
// park/resume, and solve steps interleave constantly. Under -race this
// catches a handler touching a solver after its session was evicted and
// the solver rebound to a new session.
func TestSessionChurnRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SessionMax: 2, SessionTTL: 30 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// Plain requests, no test helpers: goroutines may not
				// t.Fatal, and every status (503 table-full, 404 evicted,
				// 409 busy) is legitimate under churn.
				resp, err := http.Post(ts.URL+"/v1/sessions", "text/plain", strings.NewReader(chainCNF))
				if err != nil {
					return
				}
				var cr sessionCreateResponse
				ok := resp.StatusCode == http.StatusCreated &&
					json.NewDecoder(resp.Body).Decode(&cr) == nil
				resp.Body.Close()
				if !ok {
					continue
				}
				body, _ := json.Marshal(sessionSolveRequest{Assumptions: []int{1 - 2*(i%2)}})
				if resp, err := http.Post(ts.URL+"/v1/sessions/"+cr.ID+"/solve",
					"application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
				if i%3 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+cr.ID, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSessionStep sends arbitrary bytes as the body of one step on a
// fresh session over a small formula. The step answers 200, 400 or 413,
// never 500 or a panic. A rejected step leaves the session's frame depth,
// variables, added clauses and solve count as they were (the
// all-or-nothing contract), and after a 200 that did not evict the
// session a valid step still succeeds. The server's body, memory and
// timeout caps are small, so no input can make a step allocate or search
// for long.
func FuzzSessionStep(f *testing.F) {
	tooLong := strings.Repeat("1,", solver.MaxAddClauseLen) + "1"
	for _, seed := range []string{
		`{"pop":0,"push":1,"add":[[-4],[2,3]],"assumptions":[1]}`,
		`{"add":[[1,0,2]]}`,
		fmt.Sprintf(`{"assumptions":[%d]}`, int64(cnf.MaxVarIndex)+1),
		`{"pop":1}`,
		`{"push":100000}`,
		`{"add":[[` + tooLong + `]]}`,
		`{"timeout":"soon"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{Workers: 1, CacheSize: -1, MaxBodyBytes: 2 << 20,
		SessionMaxMem: 1 << 20, MaxTimeout: 20 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	info := func(t *testing.T, id string) sessionView {
		t.Helper()
		rec := do(http.MethodGet, "/v1/sessions/"+id, "")
		var v sessionView
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			t.Fatalf("session info: status %d: %s", rec.Code, rec.Body)
		}
		v.FootprintBytes, v.IdleMS = 0, 0 // neither is part of the step contract
		return v
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(http.MethodPost, "/v1/sessions", chainCNF)
		var cr sessionCreateResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &cr) != nil {
			t.Fatalf("create session: status %d: %s", rec.Code, rec.Body)
		}
		defer do(http.MethodDelete, "/v1/sessions/"+cr.ID, "")
		before := info(t, cr.ID)
		step := "/v1/sessions/" + cr.ID + "/solve"
		rec = do(http.MethodPost, step, string(body))
		switch rec.Code {
		case http.StatusOK:
			var sr sessionSolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				t.Fatalf("step answer: %v: %s", err, rec.Body)
			}
			if sr.Evicted {
				return
			}
			if rec := do(http.MethodPost, step, `{"assumptions":[1]}`); rec.Code != http.StatusOK {
				t.Fatalf("valid step after an accepted one: status %d: %s", rec.Code, rec.Body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if after := info(t, cr.ID); after != before {
				t.Fatalf("rejected step (%d: %s) changed the session:\n got %+v\nwant %+v",
					rec.Code, rec.Body, after, before)
			}
		default:
			t.Fatalf("step status %d: %s", rec.Code, rec.Body)
		}
	})
}
