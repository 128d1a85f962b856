package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestOutOfRangeLiteralsRejected sends literals that do not fit a cnf.Lit
// to every endpoint that takes literals. Each must be a 400 naming the
// literal, never an int32 wrap: 4294967297 used to become literal 1 (SAT,
// model [1]), 4294967296 literal 0, -2147483648 panicked the solver (and
// the session-create handler), and a session step's 2147483648 became
// -2147483648.
func TestOutOfRangeLiteralsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sid := createSession(t, ts.URL, satCNF, "").ID
	step := "/v1/sessions/" + sid + "/solve"
	for _, tc := range []struct {
		name, path, body, want string
	}{
		{"solve wraps to 1", "/v1/solve", "p cnf 1 1\n4294967297 0\n", "literal 4294967297 out of range"},
		{"solve wraps to 0", "/v1/solve", "p cnf 1 1\n4294967296 0\n", "literal 4294967296 out of range"},
		{"solve MinInt32", "/v1/solve", "p cnf 1 1\n-2147483648 0\n", "literal -2147483648 out of range"},
		{"job MinInt32", "/v1/jobs", "p cnf 1 1\n-2147483648 0\n", "literal -2147483648 out of range"},
		{"session create MinInt32", "/v1/sessions", "p cnf 1 1\n-2147483648 0\n", "literal -2147483648 out of range"},
		{"step add 2^31", step, `{"add":[[2147483648]]}`, "literal 2147483648 out of range"},
		{"step add -2^31", step, `{"add":[[1,-2147483648]]}`, "literal -2147483648 out of range"},
		{"step assumption 2^32+1", step, `{"assumptions":[4294967297]}`, "literal 4294967297 out of range"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: status %d, error %q; want 400 containing %q", tc.name, resp.StatusCode, e.Error, tc.want)
		}
	}
	// The rejected steps committed nothing: the satisfiable base still
	// answers SAT at frame depth 0.
	body, _ := json.Marshal(sessionSolveRequest{})
	resp, err := http.Post(ts.URL+step, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr sessionSolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != "SAT" || sr.FrameDepth != 0 {
		t.Fatalf("session after rejected steps: %+v, want SAT at depth 0", sr)
	}
}
