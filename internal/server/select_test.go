package server

import (
	"errors"
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

func testSelector() *portfolio.Selector {
	return portfolio.NewSelector(
		core.NewModel(core.Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 1}))
}

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
// faultpoint armed to fail it still answers no-reduction, and the
// inference histogram, which samples every model call, does not move.
func TestNoReductionSkipsInference(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reg := obs.NewRegistry()
	sel := testSelector()
	sel.Obs = reg
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, Selector: sel, Registry: reg})
	reducing := reducingSAT(t)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing))
	if sr.Policy.Fallback != portfolio.FallbackError {
		t.Fatalf("priming solve: fallback %q, want %q", sr.Policy.Fallback, portfolio.FallbackError)
	}

	samples := reg.Histogram("neuroselect_portfolio_inference_seconds", "", nil, nil)
	hits, calls := faultpoint.Hits(faultpoint.ModelInference), samples.Count()
	sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?trace=1", satCNF))
	want := policyInfo{Name: "default", Prob: -1, Fallback: portfolio.FallbackNoReduction}
	if sr.Status != "SAT" || sr.Policy != want {
		t.Fatalf("no-reduction solve: %s %+v, want SAT %+v", sr.Status, sr.Policy, want)
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != hits {
		t.Errorf("model-inference faultpoint hit %d times by a solve that never reduced", got-hits)
	}
	if got := samples.Count(); got != calls {
		t.Errorf("inference_seconds gained %d samples for a solve that never reduced", got-calls)
	}
	if got := reg.Counter("neuroselect_portfolio_choices_total", "",
		obs.Labels{"policy": "default", "fallback": portfolio.FallbackNoReduction}).Value(); got != 1 {
		t.Errorf("choices_total{fallback=no-reduction} = %d, want 1", got)
	}
	// The trace opens with solve_start naming the deferred policy and ends
	// with the one policy event, settled after the search.
	if n := len(sr.Trace); n < 2 || sr.Trace[0].Type != obs.EventSolveStart || sr.Trace[0].Policy != "auto" ||
		sr.Trace[n-1].Type != obs.EventPolicy || sr.Trace[n-2].Type != obs.EventSolveEnd {
		t.Errorf("trace of a no-reduction solve: %s", raw)
	}

	faultpoint.Disarm(faultpoint.ModelInference)
	sr, _ = decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing))
	if sr.Policy.Fallback != "" || samples.Count() != calls+1 {
		t.Errorf("reducing solve: fallback %q after %d model calls; want an inferred choice from one",
			sr.Policy.Fallback, samples.Count()-calls)
	}
}

// TestAutoChoiceIgnoresEarlierFailures pins that an auto choice is a
// function of the formula and the model alone: after five solves whose
// inference failed, the next solve of the same formula chooses what the
// model picks, and the result cache replays that choice to its repeat.
func TestAutoChoiceIgnoresEarlierFailures(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	sel := testSelector()
	sel.Model.Threshold = 0
	_, ts := newTestServer(t, Config{Workers: 1, Selector: sel})
	reducing := reducingSAT(t)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	for i := 0; i < 5; i++ {
		if sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?trace=1", reducing)); sr.Policy.Fallback != portfolio.FallbackError {
			t.Fatalf("failing solve %d: %s", i+1, raw)
		}
	}
	faultpoint.Disarm(faultpoint.ModelInference)
	for _, cache := range []string{"miss", "hit"} {
		resp := post(t, ts.URL+"/v1/solve", reducing)
		sr, raw := decodeSolve(t, resp)
		if sr.Policy.Name != "frequency" || sr.Policy.Fallback != "" {
			t.Errorf("%s solve after the failures: policy %+v, want frequency with no fallback: %s", cache, sr.Policy, raw)
		}
		if got := resp.Header.Get("X-Cache"); got != cache {
			t.Errorf("X-Cache %q, want %q", got, cache)
		}
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
