package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/solver"
)

// The default 256 MiB session memory cap admits formulas of at most
// mostVars variables; every test below sends a count just over it, which
// the service must refuse before any per-variable allocation.
var mostVars = (256 << 20) / solver.VarFootprint(1)

// wantTooManyVars checks that resp is the 413 naming the variable bound.
func wantTooManyVars(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	bound := fmt.Sprintf("at most %d fit in %d bytes", mostVars, 256<<20)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), bound) {
		t.Errorf("%s: %d %s, want 413 naming %q", what, resp.StatusCode, raw, bound)
	}
}

// TestTooManyVariablesRefused covers the upload routes: a problem line
// that declares too many variables and a bare literal that raises the
// count, on one-shot solves, async jobs and session creates.
func TestTooManyVariablesRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	over := mostVars + 1
	for _, body := range []string{
		fmt.Sprintf("p cnf %d 0\n", over),
		fmt.Sprintf("p cnf 2 1\n1 %d 0\n", over),
	} {
		for _, path := range []string{"/v1/solve", "/v1/jobs", "/v1/sessions"} {
			wantTooManyVars(t, fmt.Sprintf("%s %q", path, body), post(t, ts.URL+path, body))
		}
	}
}

// TestTooManyVariablesAtTheBound pins the bound's edge under a small cap:
// the count that fits is solved, one more is refused.
func TestTooManyVariablesAtTheBound(t *testing.T) {
	most := 1000
	_, ts := newTestServer(t, Config{Workers: 1, SessionMaxMem: solver.VarFootprint(most)})
	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", fmt.Sprintf("p cnf %d 0\n", most)))
	if sr.Status != "SAT" || len(sr.Model) != most {
		t.Errorf("%d variables at a cap that fits them: %s with %d model literals", most, sr.Status, len(sr.Model))
	}
	resp := post(t, ts.URL+"/v1/solve", fmt.Sprintf("p cnf %d 0\n", most+1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("%d variables past a cap of %d: status %d, want 413", most+1, most, resp.StatusCode)
	}
}

// TestSessionStepVariableGrowthRefused covers a session step's growth:
// frames each add a variable, and an added literal can raise the count.
// A refused step changes nothing.
func TestSessionStepVariableGrowthRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts.URL, chainCNF, "")
	step := func(req sessionSolveRequest) *http.Response {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return post(t, ts.URL+"/v1/sessions/"+cr.ID+"/solve", string(body))
	}
	over := int(mostVars) + 1
	wantTooManyVars(t, "push past the bound", step(sessionSolveRequest{Push: over}))
	wantTooManyVars(t, "push that overflows", step(sessionSolveRequest{Push: 1 << 62}))
	wantTooManyVars(t, "add a far literal", step(sessionSolveRequest{Add: [][]int{{-4}, {1, over}}}))
	wantTooManyVars(t, "frames plus new variables", step(sessionSolveRequest{
		Push: over - 4 - 2, Add: [][]int{{5, 6, -7}}}))
	sr, code := sessionSolve(t, ts.URL, cr.ID, sessionSolveRequest{Assumptions: []int{1}})
	if code != http.StatusOK || sr.Status != "SAT" || sr.FrameDepth != 0 || len(sr.Model) != 4 {
		t.Fatalf("after refused steps: %d %s depth %d model %v, want 200 SAT at depth 0 over 4 variables",
			code, sr.Status, sr.FrameDepth, sr.Model)
	}
}

// TestReplayTooManyVariablesRefused covers journal replay: a pending job
// whose formula declares too many variables completes with the 413.
func TestReplayTooManyVariablesRefused(t *testing.T) {
	dir := t.TempDir()
	writeJournalFile(t, dir, mustJSON(t, journalRecord{Type: "submit", ID: "j00000003",
		CNF: fmt.Sprintf("p cnf %d 0\n", mostVars+1), TimeoutNS: int64(10 * time.Second)}))
	s, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	j, ok := s.jobs.Get("j00000003")
	if !ok {
		t.Fatal("replayed job not found")
	}
	<-j.done
	v := j.view()
	if !strings.HasPrefix(v.Error, "413: ") || !strings.Contains(v.Error, fmt.Sprintf("at most %d", mostVars)) {
		t.Errorf("replayed job error %q, want the 413 naming the bound", v.Error)
	}
}
