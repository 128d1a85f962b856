package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/gen"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
)

const (
	satCNF   = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"
	unsatCNF = "p cnf 1 2\n1 0\n-1 0\n"
)

// dimacsOf renders a formula as an upload body.
func dimacsOf(t *testing.T, f *cnf.Formula) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cnf.WriteDIMACS(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// reducingSAT renders a satisfiable random 3-SAT instance whose solve
// reaches a reduction under the service's solve options, so a ?policy=auto
// solve of it consults the selector. satCNF ends before any reduction.
func reducingSAT(t *testing.T) string {
	return dimacsOf(t, gen.RandomKSAT(80, 336, 3, 2).F)
}

// phpDIMACS renders an unsatisfiable pigeonhole instance; holes >= 8 keeps
// a worker busy long enough to observe queueing and draining.
func phpDIMACS(t *testing.T, holes int) string {
	return dimacsOf(t, gen.Pigeonhole(holes).F)
}

// newTestServer starts a Server on an httptest listener and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSolve(t *testing.T, resp *http.Response) (solveResponse, []byte) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return sr, raw
}

func TestSolveSATVerifiesModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := post(t, ts.URL+"/v1/solve", satCNF)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	sr, _ := decodeSolve(t, resp)
	if sr.Status != "SAT" {
		t.Fatalf("status = %q, want SAT", sr.Status)
	}
	if sr.Policy.Name != "default" || sr.Policy.Fallback != "no-model" {
		t.Errorf("policy = %+v, want default/no-model", sr.Policy)
	}
	f := parse(t, satCNF)
	if len(sr.Model) != f.NumVars {
		t.Fatalf("model has %d lits, want %d", len(sr.Model), f.NumVars)
	}
	a := cnf.NewAssignment(f.NumVars)
	for _, l := range sr.Model {
		if l > 0 {
			a[l] = true
		}
	}
	if !a.Satisfies(f) {
		t.Errorf("returned model %v does not satisfy the formula", sr.Model)
	}
	if sr.Timings.TotalNS <= 0 || sr.Timings.SolveNS <= 0 {
		t.Errorf("timings not populated: %+v", sr.Timings)
	}
}

func TestSolveUNSAT(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, body := range []string{unsatCNF, phpDIMACS(t, 5)} {
		sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", body))
		if sr.Status != "UNSAT" {
			t.Errorf("status = %q, want UNSAT", sr.Status)
		}
		if len(sr.Model) != 0 {
			t.Errorf("UNSAT carried a model: %v", sr.Model)
		}
	}
}

func TestSolveTimeoutReturnsUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := post(t, ts.URL+"/v1/solve?timeout=100ms", phpDIMACS(t, 10))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (UNKNOWN is a result, not an error)", resp.StatusCode)
	}
	sr, _ := decodeSolve(t, resp)
	if sr.Status != "UNKNOWN" {
		t.Fatalf("status = %q, want UNKNOWN", sr.Status)
	}
	if sr.Stop != "timeout" {
		t.Errorf("stop = %q, want timeout", sr.Stop)
	}
}

func TestTimeoutClampedByServerMax(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxTimeout: 100 * time.Millisecond})
	start := time.Now()
	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve?timeout=1h", phpDIMACS(t, 10)))
	if sr.Status != "UNKNOWN" || sr.Stop != "timeout" {
		t.Fatalf("got %q/%q, want UNKNOWN/timeout", sr.Status, sr.Stop)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("clamp ignored: solve ran %v", elapsed)
	}
}

// TestConfigDefaults pins what New fills into a zero Config: the values
// a served process runs at for every setting it has no flag for.
func TestConfigDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"queue depth", cap(s.queue), 64},
		{"max timeout", s.cfg.MaxTimeout, 30 * time.Second},
		{"cache size", s.cfg.CacheSize, 256},
		{"max body", s.cfg.MaxBodyBytes, int64(64 << 20)},
		{"job history", s.cfg.JobHistory, 1024},
		{"session max", s.cfg.SessionMax, 64},
		{"session ttl", s.cfg.SessionTTL, 5 * time.Minute},
		{"session max mem", s.cfg.SessionMaxMem, int64(256 << 20)},
		{"event ring", s.cfg.EventRing, 256},
		{"event queue", s.cfg.EventQueue, 256},
		{"sse heartbeat", s.cfg.SSEHeartbeat, 15 * time.Second},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
	sess := createSession(t, ts.URL, chainCNF, "")
	// A step whose JSON alone runs past the body cap.
	bigStep := `{"assumptions":[` + strings.Repeat("1,", 4096) + `1]}`
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed dimacs", "/v1/solve", "p cnf nope\n1 0\n", 400},
		{"empty body", "/v1/solve", "", 400},
		{"bad timeout", "/v1/solve?timeout=banana", satCNF, 400},
		{"bad policy", "/v1/solve?policy=banana", satCNF, 400},
		{"bad trace", "/v1/solve?trace=banana", satCNF, 400},
		{"oversize session step", "/v1/sessions/" + sess.ID + "/solve", bigStep, 413},
	}
	for _, tc := range cases {
		resp := post(t, ts.URL+tc.path, tc.body)
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d (%q), want %d", tc.name, resp.StatusCode, e.Error, tc.want)
		}
		if e.Error == "" {
			t.Errorf("%s: error body missing", tc.name)
		}
		if tc.want == 413 && e.Error != "body exceeds 4096 bytes" {
			t.Errorf("%s: error %q, want the upload's %q", tc.name, e.Error, "body exceeds 4096 bytes")
		}
	}
	// Wrong method and unknown route come from the mux.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	resp := post(t, ts.URL+"/v1/solve", satCNF+strings.Repeat("c padding\n", 100))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}

	// A gzip body small on the wire but past the cap once expanded.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(satCNF + strings.Repeat("c padding\n", 100)))
	gz.Close()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", &buf)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("gzip bomb status = %d, want 413", resp.StatusCode)
	}
}

func TestGzipUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(satCNF)); err != nil {
		t.Fatal(err)
	}
	gz.Close()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", &buf)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := decodeSolve(t, resp)
	if sr.Status != "SAT" {
		t.Errorf("gzip solve status = %q, want SAT", sr.Status)
	}

	// Unknown encodings are refused, not misparsed.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/solve", strings.NewReader(satCNF))
	req.Header.Set("Content-Encoding", "zstd")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("zstd upload = %d, want 415", resp.StatusCode)
	}
}

func TestCacheHitReturnsIdenticalBody(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})

	resp1 := post(t, ts.URL+"/v1/solve", satCNF)
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	_, raw1 := decodeSolve(t, resp1)

	// Same clause set, different surface syntax: must still hit.
	reordered := "c same instance\np cnf 3 3\n-2 -3 0\n2 1 0\n-1 3 0\n"
	resp2 := post(t, ts.URL+"/v1/solve", reordered)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	_, raw2 := decodeSolve(t, resp2)
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("cache hit body differs from original:\n%s\nvs\n%s", raw1, raw2)
	}

	hits := reg.Counter("neuroselect_server_cache_events_total", "", obs.Labels{"event": "hit"})
	misses := reg.Counter("neuroselect_server_cache_events_total", "", obs.Labels{"event": "miss"})
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Errorf("cache counters hit=%d miss=%d, want 1/1", hits.Value(), misses.Value())
	}

	// A different instance must miss.
	resp3 := post(t, ts.URL+"/v1/solve", unsatCNF)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("distinct formula X-Cache = %q, want miss", got)
	}
	resp3.Body.Close()
}

func TestUnknownResultsAreNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := phpDIMACS(t, 10)
	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve?timeout=50ms", body))
	if sr.Status != "UNKNOWN" {
		t.Fatalf("warmup status = %q, want UNKNOWN", sr.Status)
	}
	resp := post(t, ts.URL+"/v1/solve?timeout=50ms", body)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("UNKNOWN was cached: X-Cache = %q", got)
	}
	resp.Body.Close()
}

func TestTraceCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := post(t, ts.URL+"/v1/solve?trace=1", phpDIMACS(t, 5))
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Errorf("traced X-Cache = %q, want bypass", got)
	}
	sr, _ := decodeSolve(t, resp)
	if sr.Status != "UNSAT" {
		t.Fatalf("status = %q, want UNSAT", sr.Status)
	}
	types := map[string]bool{}
	for _, ev := range sr.Trace {
		types[ev.Type] = true
	}
	for _, want := range []string{obs.EventPolicy, obs.EventSolveStart, obs.EventSolveEnd} {
		if !types[want] {
			t.Errorf("trace missing %q events (got %v)", want, types)
		}
	}
}

// TestPolicyEventMatchesResponse pins, for each way a one-shot solve's
// policy is decided (a pinned policy, no model, a failed inference,
// inference, a deferred choice the search never needed), the response's
// policy object and the ?trace=1 policy event that records the same
// choice. The inference fails at the model-inference faultpoint, armed
// for the measured request.
func TestPolicyEventMatchesResponse(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reducing := reducingSAT(t)
	f, err := cnf.ParseDIMACS(strings.NewReader(reducing))
	if err != nil {
		t.Fatal(err)
	}
	inferred := testSelector().Choose(f)
	cases := []struct {
		name  string
		cfg   Config
		body  string
		query string
		fault bool // the model call fails
		want  policyInfo
	}{
		{"requested", Config{Selector: testSelector()}, reducing, "&policy=frequency", false,
			policyInfo{Name: "frequency", Prob: -1, Fallback: "requested"}},
		{"no-model", Config{}, reducing, "", false,
			policyInfo{Name: "default", Prob: -1, Fallback: "no-model"}},
		{"inference-error", Config{Selector: testSelector()}, reducing, "", true,
			policyInfo{Name: "default", Prob: -1, Fallback: portfolio.FallbackError}},
		{"inferred", Config{Selector: testSelector()}, reducing, "", false,
			policyInfo{Name: inferred.Policy.Name(), Prob: inferred.Prob}},
		{"no-reduction", Config{Selector: testSelector()}, satCNF, "", false,
			policyInfo{Name: "default", Prob: -1, Fallback: portfolio.FallbackNoReduction}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 1
			tc.cfg.CacheSize = -1
			_, ts := newTestServer(t, tc.cfg)
			if tc.fault {
				faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
				defer faultpoint.Disarm(faultpoint.ModelInference)
			}
			sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?trace=1"+tc.query, tc.body))
			got := sr.Policy
			got.InferenceNS = 0
			if got != tc.want {
				t.Errorf("policy = %+v, want %+v", sr.Policy, tc.want)
			}
			called := tc.want.Fallback == "" || tc.want.Fallback == portfolio.FallbackError
			if ran := sr.Policy.InferenceNS > 0; ran != called {
				t.Errorf("inference_ns = %d with fallback %q", sr.Policy.InferenceNS, sr.Policy.Fallback)
			}
			var events []obs.Event
			for _, ev := range sr.Trace {
				if ev.Type == obs.EventPolicy {
					events = append(events, ev)
				}
			}
			if len(events) != 1 {
				t.Fatalf("%d policy events, want 1: %s", len(events), raw)
			}
			ev := events[0]
			if ev.Policy != sr.Policy.Name || ev.Prob != sr.Policy.Prob ||
				ev.Fallback != sr.Policy.Fallback || ev.InferenceNS != sr.Policy.InferenceNS {
				t.Errorf("policy event %+v disagrees with the response's %+v", ev, sr.Policy)
			}
		})
	}
}

func TestQueueFullSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxTimeout: 60 * time.Second})
	hard := phpDIMACS(t, 10)

	// Occupy the single worker, then fill the queue's one slot. Async
	// submissions return immediately, so no client goroutines needed. The
	// instances must be genuinely distinct — identical formulas would
	// share the first job's flight (singleflight) instead of queueing.
	id1 := submitJob(t, ts.URL, hard)
	waitJobState(t, ts.URL, id1, JobRunning)
	submitJob(t, ts.URL, phpDIMACS(t, 9))

	resp := post(t, ts.URL+"/v1/jobs", phpDIMACS(t, 8))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	shed := s.Registry().Counter("neuroselect_server_shed_total", "", nil)
	if shed.Value() == 0 {
		t.Error("shed counter did not move")
	}
	// The sync endpoint sheds identically (again a distinct instance).
	resp2 := post(t, ts.URL+"/v1/solve", phpDIMACS(t, 7))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sync shed status = %d, want 429", resp2.StatusCode)
	}
}

// submitJob posts an async job and returns its id.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	resp := post(t, base+"/v1/jobs", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// pollJob fetches one job view.
func pollJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitJobState polls until the job reaches the state (or is past it, for
// running→done races) or the deadline hits.
func waitJobState(t *testing.T, base, id, state string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := pollJob(t, base, id)
		if v.Status == state || v.Status == JobDone {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, state)
	return jobView{}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := submitJob(t, ts.URL, satCNF)
	v := waitJobState(t, ts.URL, id, JobDone)
	if v.Status != JobDone {
		t.Fatalf("job status = %q, want done", v.Status)
	}
	var sr solveResponse
	if err := json.Unmarshal(v.Result, &sr); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if sr.Status != "SAT" {
		t.Errorf("async result = %q, want SAT", sr.Status)
	}

	// A second submit of the same instance completes from the cache on
	// the submit response itself.
	resp := post(t, ts.URL+"/v1/jobs", satCNF)
	defer resp.Body.Close()
	var v2 jobView
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Status != JobDone || !v2.Cached {
		t.Errorf("cached submit = %+v, want done/cached", v2)
	}

	// Unknown ids 404.
	resp404, err := http.Get(ts.URL + "/v1/jobs/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != 404 {
		t.Errorf("unknown job = %d, want 404", resp404.StatusCode)
	}
}

func TestGracefulDrainCompletesInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxTimeout: 60 * time.Second})
	id := submitJob(t, ts.URL, phpDIMACS(t, 8))
	waitJobState(t, ts.URL, id, JobRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining flips synchronously inside Drain; wait for it to be visible.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the in-flight job keeps running.
	resp := post(t, ts.URL+"/v1/solve", satCNF)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve during drain = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hresp.StatusCode)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished with a real result — nothing dropped.
	v := pollJob(t, ts.URL, id)
	if v.Status != JobDone || v.Error != "" {
		t.Fatalf("after drain job = %+v, want done without error", v)
	}
	var sr solveResponse
	if err := json.Unmarshal(v.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != "UNSAT" {
		t.Errorf("drained job result = %q, want UNSAT (php-8)", sr.Status)
	}
}

func TestPolicyPinning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, pol := range []string{"default", "frequency", "activity", "size"} {
		sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve?policy="+pol, phpDIMACS(t, 5)+"c "+pol+"\n"))
		if sr.Policy.Name != pol || sr.Policy.Fallback != "requested" {
			t.Errorf("policy %s: got %+v", pol, sr.Policy)
		}
		if sr.Status != "UNSAT" {
			t.Errorf("policy %s: status %q, want UNSAT", pol, sr.Status)
		}
	}
}

// TestConcurrentClients hammers one server from many goroutines mixing
// cacheable repeats, distinct instances, and timeouts; run under -race it
// checks the admission path, cache, job store, and metrics for data races.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	bodies := []struct {
		cnf  string
		want string
	}{
		{satCNF, "SAT"},
		{unsatCNF, "UNSAT"},
		{phpDIMACS(t, 4), "UNSAT"},
		{phpDIMACS(t, 5), "UNSAT"},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				b := bodies[(g+i)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/solve", "text/plain", strings.NewReader(b.cnf))
				if err != nil {
					errs <- err.Error()
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // legitimate shed under load
				}
				var sr solveResponse
				if err := json.Unmarshal(raw, &sr); err != nil {
					errs <- fmt.Sprintf("goroutine %d: decode %q: %v", g, raw, err)
					return
				}
				if sr.Status != b.want {
					errs <- fmt.Sprintf("goroutine %d: status %q, want %q", g, sr.Status, b.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestProgressKeepsLastWindowEvent pins the poll body's progress object
// to the last window trace event of the job's tracer chain: other event
// types leave it alone, and its JSON carries the window's counters and
// rates under the API.md field names, zeros included.
func TestProgressKeepsLastWindowEvent(t *testing.T) {
	var pt progressTracer
	if pt.last.Load() != nil {
		t.Fatal("progress before the first window")
	}
	pt.Trace(&obs.Event{Type: obs.EventWindow, TimeNS: 5, Conflicts: 256, Decisions: 300,
		Propagations: 9000, Learned: 250, WindowConflicts: 256,
		PropsPerSec: 1.5e6, MeanGlue: 4.25, TrailDepth: 17, Reductions: 1, MaxTrail: 40})
	pt.Trace(&obs.Event{Type: obs.EventRestart, Conflicts: 300})
	pt.Trace(&obs.Event{Type: obs.EventSolveEnd, Conflicts: 310, Status: "SAT"})
	b, err := json.Marshal(pt.last.Load())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"conflicts":256,"decisions":300,"propagations":9000,"restarts":0,"learned":250,` +
		`"window_conflicts":256,"props_per_sec":1500000,"mean_glue":4.25,"trail_depth":17,"t_ns":5}`
	if string(b) != want {
		t.Errorf("progress %s\nwant     %s", b, want)
	}
}
