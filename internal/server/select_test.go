package server

import (
	"errors"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

// TestAutoSolveMatchesEagerSearch pins that deferring the choice to the
// first reduction leaves every search as it was: for a model forced to
// pick frequency (threshold 0) and one that never does (threshold 1.1),
// each ?policy=auto solve over draws of the training mixture reports
// exactly the stats of a solve run from the start under the policy the
// model picks, including the solves that end before any reduction.
func TestAutoSolveMatchesEagerSearch(t *testing.T) {
	var fs []*cnf.Formula
	for seed := int64(1); seed <= 24; seed++ {
		fs = append(fs, dataset.Generate(seed, 0.75).F)
	}
	for _, tc := range []struct {
		threshold float64
		picks     deletion.Policy
	}{{0, deletion.FrequencyPolicy{}}, {1.1, deletion.DefaultPolicy{}}} {
		sel := testSelector()
		sel.Model.Threshold = tc.threshold
		_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, Selector: sel})
		deferred, chosen := 0, 0
		for i, f := range fs {
			sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?policy=auto", dimacsOf(t, f)))
			want, err := solver.Solve(f, dataset.SolveOptions(tc.picks, 0))
			if err != nil {
				t.Fatal(err)
			}
			if sr.Status != want.Status.String() || sr.Stats != want.Stats {
				t.Errorf("threshold %v, draw %d: auto solve %s %+v; eager %s solve %s %+v",
					tc.threshold, i+1, sr.Status, sr.Stats, tc.picks.Name(), want.Status, want.Stats)
			}
			switch {
			case sr.Policy.Fallback == portfolio.FallbackNoReduction && sr.Policy.Name == "default":
				deferred++
				if want.Stats.Reductions > 0 && want.Stats.Deleted > 0 {
					t.Errorf("draw %d deleted clauses yet reports %s: %s", i+1, sr.Policy.Fallback, raw)
				}
			case sr.Policy.Fallback == "" && sr.Policy.Name == tc.picks.Name():
				chosen++
				if sr.Policy.InferenceNS <= 0 {
					t.Errorf("draw %d: inferred choice without inference_ns: %s", i+1, raw)
				}
			default:
				t.Errorf("draw %d: policy %+v, want %s or %s", i+1, sr.Policy, tc.picks.Name(), portfolio.FallbackNoReduction)
			}
			tm := sr.Timings
			if tm.QueueNS+sr.Policy.InferenceNS+tm.SolveNS > tm.TotalNS || tm.SolveNS <= 0 {
				t.Errorf("draw %d: queue %d + inference %d + solve %d do not fit in total %d",
					i+1, tm.QueueNS, sr.Policy.InferenceNS, tm.SolveNS, tm.TotalNS)
			}
		}
		if deferred == 0 || chosen == 0 {
			t.Errorf("threshold %v: %d solves never reduced and %d chose; the draws must cover both",
				tc.threshold, deferred, chosen)
		}
	}
}

// TestNoReductionSkipsInference pins that a solve which ends before its
// first reduction never reaches the model: with the model-inference
// faultpoint armed to fail it still answers no-reduction, and it leaves a
// half-open breaker's single probe to the next solve that needs a choice.
func TestNoReductionSkipsInference(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reg := obs.NewRegistry()
	sel := testSelector()
	sel.Obs = reg
	s, ts := newTestServer(t, Config{
		Workers:          1,
		CacheSize:        -1,
		Selector:         sel,
		Registry:         reg,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	reducing := reducingSAT(t)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing))
	if sr.Policy.Fallback != portfolio.FallbackError || s.brk.State() != breakerOpen {
		t.Fatalf("priming solve: fallback %q, breaker %v; want %q and open",
			sr.Policy.Fallback, s.brk.State(), portfolio.FallbackError)
	}
	// Past the cooldown: the next choice is the half-open probe.
	s.brk.mu.Lock()
	s.brk.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.brk.mu.Unlock()

	inferences := func() int64 {
		var n int64
		for _, o := range []string{"ok", "failure", FallbackBreakerOpen} {
			n += reg.Counter("neuroselect_server_inference_total", "", obs.Labels{"outcome": o}).Value()
		}
		return n
	}
	samples := reg.Histogram("neuroselect_portfolio_inference_seconds", "", nil, nil)
	hits, attempts, timed := faultpoint.Hits(faultpoint.ModelInference), inferences(), samples.Count()
	sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?trace=1", satCNF))
	want := policyInfo{Name: "default", Prob: -1, Fallback: portfolio.FallbackNoReduction}
	if sr.Status != "SAT" || sr.Policy != want {
		t.Fatalf("no-reduction solve: %s %+v, want SAT %+v", sr.Status, sr.Policy, want)
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != hits {
		t.Errorf("model-inference faultpoint hit %d times by a solve that never reduced", got-hits)
	}
	if got := inferences(); got != attempts {
		t.Errorf("inference_total moved by %d for a solve that never reduced", got-attempts)
	}
	if got := samples.Count(); got != timed {
		t.Errorf("inference_seconds gained %d samples for a skipped choice", got-timed)
	}
	if got := reg.Counter("neuroselect_portfolio_choices_total", "",
		obs.Labels{"policy": "default", "fallback": portfolio.FallbackNoReduction}).Value(); got != 1 {
		t.Errorf("choices_total{fallback=no-reduction} = %d, want 1", got)
	}
	if st := s.brk.State(); st != breakerOpen {
		t.Errorf("breaker %v after a solve that never reduced, want still open with its probe unspent", st)
	}
	// The trace opens with solve_start naming the deferred policy and ends
	// with the one policy event, settled after the search.
	if n := len(sr.Trace); n < 2 || sr.Trace[0].Type != obs.EventSolveStart || sr.Trace[0].Policy != "auto" ||
		sr.Trace[n-1].Type != obs.EventPolicy || sr.Trace[n-2].Type != obs.EventSolveEnd {
		t.Errorf("trace of a no-reduction solve: %s", raw)
	}

	faultpoint.Disarm(faultpoint.ModelInference)
	sr, _ = decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing))
	if sr.Policy.Fallback != "" || s.brk.State() != breakerClosed {
		t.Errorf("probe solve: fallback %q, breaker %v; want an inferred choice closing the breaker",
			sr.Policy.Fallback, s.brk.State())
	}
}

// TestNodeCapSkipTakesNoProbe pins that a choice over the node cap, which
// never calls the model, is not an inference: it leaves a half-open
// breaker's single probe unspent, records no breaker outcome and adds
// nothing to inference_total.
func TestNodeCapSkipTakesNoProbe(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers:          1,
		CacheSize:        -1,
		Selector:         testSelector(),
		Registry:         reg,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	decodeSolve(t, post(t, ts.URL+"/v1/solve", reducingSAT(t)))
	if st := s.brk.State(); st != breakerOpen {
		t.Fatalf("breaker %v after a failed inference, want open", st)
	}
	faultpoint.Disarm(faultpoint.ModelInference)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{}) // counts model calls
	// Past the cooldown: the next choice that calls the model is the probe.
	s.brk.mu.Lock()
	s.brk.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.brk.mu.Unlock()

	ch := s.choosePolicy(cnf.New(portfolio.NodeCapDefault + 1))
	if ch.Fallback != portfolio.FallbackNodeCap {
		t.Fatalf("over-cap choice: fallback %q, want %q", ch.Fallback, portfolio.FallbackNodeCap)
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != 0 {
		t.Errorf("over-cap choice called the model %d times", got)
	}
	if st := s.brk.State(); st != breakerOpen {
		t.Errorf("breaker %v after an over-cap choice, want still open with its probe unspent", st)
	}
	for _, o := range []string{"ok", "failure", FallbackBreakerOpen} {
		want := int64(0)
		if o == "failure" {
			want = 1 // the priming solve
		}
		if got := reg.Counter("neuroselect_server_inference_total", "", obs.Labels{"outcome": o}).Value(); got != want {
			t.Errorf("inference_total{outcome=%q} = %d, want %d", o, got, want)
		}
	}

	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", reducingSAT(t)))
	if sr.Policy.Fallback != "" || s.brk.State() != breakerClosed {
		t.Errorf("probe solve: fallback %q, breaker %v; want an inferred choice closing the breaker",
			sr.Policy.Fallback, s.brk.State())
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != 1 {
		t.Errorf("model calls = %d, want the one probe", got)
	}
}

// TestDeferredPolicyEventPrecedesFirstReduce pins where a traced auto
// solve records its choice: solve_start names the deferred policy "auto",
// and the one policy event comes right before the first reduce event, the
// moment the search first ranked learned clauses.
func TestDeferredPolicyEventPrecedesFirstReduce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Selector: testSelector()})
	sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?trace=1", reducingSAT(t)))
	if sr.Policy.Fallback != "" {
		t.Fatalf("policy %+v, want an inferred choice", sr.Policy)
	}
	if len(sr.Trace) == 0 || sr.Trace[0].Type != obs.EventSolveStart || sr.Trace[0].Policy != "auto" {
		t.Fatalf("trace does not open with solve_start policy=auto: %s", raw)
	}
	policyAt, reduceAt := -1, -1
	for i, ev := range sr.Trace {
		switch {
		case ev.Type == obs.EventPolicy:
			if policyAt >= 0 {
				t.Fatalf("second policy event at %d: %s", i, raw)
			}
			policyAt = i
		case ev.Type == obs.EventReduce && reduceAt < 0:
			reduceAt = i
		}
	}
	if policyAt < 0 || reduceAt != policyAt+1 {
		t.Errorf("policy event at %d, first reduce at %d; want the policy right before it: %s", policyAt, reduceAt, raw)
	}
}
