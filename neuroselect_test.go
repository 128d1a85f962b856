package neuroselect_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"neuroselect"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/gen"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
)

func TestFacadeSolve(t *testing.T) {
	f := neuroselect.NewFormula(3)
	f.MustAddClause(1, 2)
	f.MustAddClause(-1, 3)
	f.MustAddClause(-2, -3)
	res, err := neuroselect.Solve(f, neuroselect.SolveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Sat {
		t.Fatalf("status %v", res.Status)
	}
	if !res.Model.Satisfies(f) {
		t.Fatal("model must satisfy")
	}
}

func TestFacadePolicies(t *testing.T) {
	f, err := neuroselect.ParseDIMACS(strings.NewReader("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"", "default", "frequency", "activity", "size"} {
		res, err := neuroselect.Solve(f, neuroselect.SolveConfig{Policy: pol})
		if err != nil {
			t.Fatalf("%q: %v", pol, err)
		}
		if res.Status != neuroselect.Unsat {
			t.Fatalf("%q: %v", pol, res.Status)
		}
	}
	if _, err := neuroselect.Solve(f, neuroselect.SolveConfig{Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestFacadeSolveAssuming(t *testing.T) {
	f := neuroselect.NewFormula(2)
	f.MustAddClause(1, 2)
	res, err := neuroselect.SolveAssuming(f, []neuroselect.Lit{-1}, neuroselect.SolveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Sat || !res.Model[2] {
		t.Fatalf("assumption solve: %v %v", res.Status, res.Model)
	}
}

// TestFacadeSolveAssumingHonorsConfig pins that SolveAssuming applies
// Timeout, Tracer and Proof as Solve does, and that the proof certifies
// the formula with the assumptions added as units.
func TestFacadeSolveAssumingHonorsConfig(t *testing.T) {
	log := &eventLog{}
	res, err := neuroselect.SolveAssuming(gen.Pigeonhole(10).F, nil, neuroselect.SolveConfig{
		MaxConflicts: 200000, // bounds the run should the timeout be ignored
		Timeout:      20 * time.Millisecond,
		Tracer:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Unknown || !errors.Is(res.Stop, neuroselect.ErrDeadline) {
		t.Fatalf("php-10 under a 20ms timeout: %v (stop %v), want UNKNOWN on the deadline",
			res.Status, res.Stop)
	}
	if n := len(log.events); n < 2 || log.events[0].Type != obs.EventSolveStart ||
		log.events[n-1].Type != obs.EventSolveEnd {
		t.Fatalf("tracer saw %d events, want solve_start first and solve_end last", n)
	}

	f := gen.Pigeonhole(6).F
	var proof strings.Builder
	w := neuroselect.NewProofWriter(&proof)
	res, err = neuroselect.SolveAssuming(f, []neuroselect.Lit{1}, neuroselect.SolveConfig{Proof: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Unsat || proof.Len() == 0 {
		t.Fatalf("php-6 assuming 1: %v with a %d-byte proof, want UNSAT with a proof", res.Status, proof.Len())
	}
	g := f.Clone()
	g.MustAddClause(1)
	if err := neuroselect.CheckProof(g, strings.NewReader(proof.String())); err != nil {
		t.Fatalf("proof of f with the assumption unit: %v", err)
	}
}

func TestFacadeDIMACSRoundTrip(t *testing.T) {
	f := neuroselect.NewFormula(2)
	f.MustAddClause(1, -2)
	var sb strings.Builder
	if err := neuroselect.WriteDIMACS(&sb, f); err != nil {
		t.Fatal(err)
	}
	g, err := neuroselect.ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != 2 || len(g.Clauses) != 1 {
		t.Fatal("round trip")
	}
}

// TestFacadeEndToEnd exercises train → predict → adaptive solve at the
// smallest scale.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, err := neuroselect.TrainSelector(neuroselect.TrainerConfig{Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	f := neuroselect.NewFormula(3)
	f.MustAddClause(1, 2, 3)
	f.MustAddClause(-1, -2)
	prob, policy := neuroselect.PredictPolicy(f, m)
	if prob < 0 || prob > 1 {
		t.Fatalf("prob %v", prob)
	}
	if policy != "default" && policy != "frequency" {
		t.Fatalf("policy %q", policy)
	}
	res, err := neuroselect.SolveAdaptive(f, m, neuroselect.SolveConfig{MaxConflicts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Sat {
		t.Fatalf("adaptive solve: %v", res.Status)
	}
}

// eventLog is a Tracer that keeps every event.
type eventLog struct{ events []neuroselect.TraceEvent }

func (l *eventLog) Trace(ev *neuroselect.TraceEvent) { l.events = append(l.events, *ev) }

// TestSolveAdaptiveHonorsConfig pins SolveAdaptive to Solve's handling of
// SolveConfig: the model's policy replaces cfg.Policy, and Timeout,
// Tracer and Proof apply as they do for Solve.
// (SolveAdaptive used to honor MaxConflicts alone: a 20 ms timeout on
// php-10 ran to the full conflict budget and traced nothing.) The choice
// waits for the first reduction, so solve_start names the policy "auto"
// and the one policy event names the model's pick.
func TestSolveAdaptiveHonorsConfig(t *testing.T) {
	m := core.NewModel(core.DefaultConfig()) // untrained: any policy will do
	f := gen.Pigeonhole(10).F
	_, want := neuroselect.PredictPolicy(f, m)
	log := &eventLog{}
	res, err := neuroselect.SolveAdaptive(f, m, neuroselect.SolveConfig{
		Policy:       "size",
		MaxConflicts: 20000,
		Timeout:      20 * time.Millisecond,
		Tracer:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Unknown || !errors.Is(res.Stop, neuroselect.ErrDeadline) {
		t.Fatalf("php-10 under a 20ms timeout: %v (stop %v), want UNKNOWN on the deadline",
			res.Status, res.Stop)
	}
	types := map[string]int{}
	for _, ev := range log.events {
		types[ev.Type]++
		if ev.Type == obs.EventSolveStart && ev.Policy != "auto" {
			t.Errorf("solve started under %q, want the deferred choice auto", ev.Policy)
		}
		if ev.Type == obs.EventPolicy && (ev.Policy != want || ev.Fallback != "") {
			t.Errorf("policy event %q (fallback %q), model chose %q", ev.Policy, ev.Fallback, want)
		}
	}
	for _, typ := range []string{obs.EventPolicy, obs.EventSolveStart, obs.EventSolveEnd} {
		if types[typ] != 1 {
			t.Errorf("%d %s events, want 1 (all: %v)", types[typ], typ, types)
		}
	}

	// php-5 reduces before it is refuted, so the proof spans the deferred
	// choice and the deletions it drives.
	php := gen.Pigeonhole(5).F
	var proof strings.Builder
	w := neuroselect.NewProofWriter(&proof)
	res, err = neuroselect.SolveAdaptive(php, m, neuroselect.SolveConfig{Proof: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Unsat || res.Stats.Reductions == 0 {
		t.Fatalf("php-5 under Proof: %v after %d reductions, want UNSAT after at least one",
			res.Status, res.Stats.Reductions)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := neuroselect.CheckProof(php, strings.NewReader(proof.String())); err != nil {
		t.Fatalf("SolveAdaptive's proof rejected: %v", err)
	}
}

// TestSolveAdaptiveMatchesEagerSearch pins that SolveAdaptive, whose
// choice waits for the first reduction, runs the search an up-front
// choice would have run: for a model forced to pick frequency (threshold
// 0) and one that never does (threshold 1.1), each solve over draws of
// the training mixture reports exactly the stats of Solve under the
// model's pick, including the solves that end before any reduction.
func TestSolveAdaptiveMatchesEagerSearch(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		picks     string
	}{{0, "frequency"}, {1.1, "default"}} {
		m := core.NewModel(core.Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 1})
		m.Threshold = tc.threshold
		moot, chosen := 0, 0
		for seed := int64(1); seed <= 24; seed++ {
			f := dataset.Generate(seed, 0.75).F
			log := &eventLog{}
			res, err := neuroselect.SolveAdaptive(f, m, neuroselect.SolveConfig{Tracer: log})
			if err != nil {
				t.Fatal(err)
			}
			want, err := neuroselect.Solve(f, neuroselect.SolveConfig{Policy: tc.picks})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != want.Status || res.Stats != want.Stats {
				t.Errorf("threshold %v, draw %d: adaptive solve %v %+v; eager %s solve %v %+v",
					tc.threshold, seed, res.Status, res.Stats, tc.picks, want.Status, want.Stats)
			}
			var choice []neuroselect.TraceEvent
			for _, ev := range log.events {
				if ev.Type == obs.EventPolicy {
					choice = append(choice, ev)
				}
			}
			switch {
			case len(choice) != 1:
				t.Errorf("draw %d: %d policy events, want 1", seed, len(choice))
			case choice[0].Fallback == portfolio.FallbackNoReduction && choice[0].Policy == "default":
				moot++
			case choice[0].Fallback == "" && choice[0].Policy == tc.picks:
				chosen++
			default:
				t.Errorf("draw %d: policy event %+v, want %s or %s", seed, choice[0], tc.picks, portfolio.FallbackNoReduction)
			}
		}
		if moot == 0 || chosen == 0 {
			t.Errorf("threshold %v: %d solves never reduced and %d chose; the draws must cover both",
				tc.threshold, moot, chosen)
		}
	}
}

func TestFacadeProofRoundTrip(t *testing.T) {
	f, err := neuroselect.ParseDIMACS(strings.NewReader("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	var proof strings.Builder
	w := neuroselect.NewProofWriter(&proof)
	res, err := neuroselect.Solve(f, neuroselect.SolveConfig{Proof: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != neuroselect.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := neuroselect.CheckProof(f, strings.NewReader(proof.String())); err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
}

func TestFacadeModelSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, err := neuroselect.TrainSelector(neuroselect.TrainerConfig{Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := neuroselect.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := neuroselect.LoadModel(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	f := neuroselect.NewFormula(3)
	f.MustAddClause(1, 2, 3)
	if loaded.Predict(f) != m.Predict(f) {
		t.Fatal("loaded model predicts differently")
	}
}
