package portfolio

import (
	"context"
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
	"neuroselect/internal/obs"
	"neuroselect/internal/solver"
)

func freshModel() *core.Model {
	return core.NewModel(core.Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 1})
}

func TestChooseRespectsThreshold(t *testing.T) {
	f := gen.RandomKSAT(20, 80, 3, 1).F
	choose := func(threshold float64) string {
		m := freshModel()
		m.Threshold = threshold
		return NewSelector(m).Choose(f).Policy.Name()
	}
	if got := choose(1.01); got != "default" {
		t.Fatalf("threshold above 1 must select default, got %s", got)
	}
	if got := choose(0); got != "frequency" {
		t.Fatalf("threshold 0 must select frequency, got %s", got)
	}
	// prob >= threshold → frequency
	if got := choose(freshModel().Predict(f)); got != "frequency" {
		t.Fatal("boundary probability must select frequency")
	}
}

func TestChooseReportsInferenceTime(t *testing.T) {
	sel := NewSelector(freshModel())
	ch := sel.Choose(gen.RandomKSAT(30, 120, 3, 2).F)
	if ch.Prob < 0 || ch.Prob > 1 {
		t.Fatalf("prob = %v", ch.Prob)
	}
	if ch.Inference <= 0 {
		t.Fatal("inference time must be recorded")
	}
}

func TestNodeCapSkipsInference(t *testing.T) {
	m := freshModel()
	m.Threshold = 0 // would always pick frequency if inference ran
	ch := NewSelector(m).Choose(cnf.New(NodeCapDefault + 1))
	if ch.Policy.Name() != "default" {
		t.Fatal("capped instances must fall back to the default policy")
	}
	if ch.Prob >= 0 {
		t.Fatal("capped instances must mark inference as skipped")
	}
	if ch.Inference != 0 {
		t.Fatal("no inference time should accrue when skipped")
	}
}

// TestChooseMetrics pins what the selector's registry counts: every
// decision in choices_total, skips included, but an inference-latency
// sample only for a choice that called the model.
func TestChooseMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sel := &Selector{Model: freshModel(), Obs: reg}
	sel.Choose(cnf.New(NodeCapDefault + 1))
	sel.Choose(gen.RandomKSAT(30, 120, 3, 2).F)
	choices := func(fallback string) int64 {
		var n int64
		for _, pol := range []string{"default", "frequency"} {
			n += reg.Counter("neuroselect_portfolio_choices_total", "",
				obs.Labels{"policy": pol, "fallback": fallback}).Value()
		}
		return n
	}
	for _, fb := range []string{FallbackNodeCap, "none"} {
		if got := choices(fb); got != 1 {
			t.Errorf("choices_total{fallback=%q} = %d, want 1", fb, got)
		}
	}
	if got := reg.Histogram("neuroselect_portfolio_inference_seconds", "", nil, nil).Count(); got != 1 {
		t.Errorf("inference_seconds has %d samples, want 1: one choice called the model", got)
	}
}

// TestChooseAllocs checks that a warmed selection allocates nothing: the
// graph is built into the model's pooled scratch, not onto the heap, at
// either size.
func TestChooseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool puts, so allocation counts vary")
	}
	sel := NewSelector(core.NewModel(quickScaleConfig))
	small := gen.RandomKSAT(100, 426, 3, 1).F
	large := gen.RandomKSAT(3000, 12780, 3, 2).F
	sel.Choose(large)
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{{"100 variables", small}, {"3000 variables", large}} {
		if a := testing.AllocsPerRun(20, func() { sel.Choose(tc.f) }); a != 0 {
			t.Errorf("Choose on %s: %v allocations, want 0", tc.name, a)
		}
	}
}

func TestSolveProducesVerifiedResult(t *testing.T) {
	sel := NewSelector(freshModel())
	inst := gen.Pigeonhole(5)
	rep, err := sel.SolveContext(context.Background(), inst.F, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unsat {
		t.Fatalf("php-5 must be UNSAT, got %v", rep.Result.Status)
	}
	if rep.SolveTime <= 0 {
		t.Fatal("solve time must be recorded")
	}

	sat := gen.NQueens(6)
	rep2, err := sel.SolveContext(context.Background(), sat.F, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Result.Status != solver.Sat || !rep2.Result.Model.Satisfies(sat.F) {
		t.Fatal("queens-6 model must verify")
	}
}

// TestSolveContextMatchesEagerSearch pins that Selector.SolveContext,
// whose choice waits for the first reduction, runs the search an
// up-front choice would have run: for a model forced to pick frequency
// (threshold 0) and one that never does (threshold 1.1), each solve over
// draws of the training mixture reports exactly the stats of a solve run
// from the start under the policy the model picks, including the solves
// that end before any reduction.
func TestSolveContextMatchesEagerSearch(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		picks     deletion.Policy
	}{{0, deletion.FrequencyPolicy{}}, {1.1, deletion.DefaultPolicy{}}} {
		m := freshModel()
		m.Threshold = tc.threshold
		sel := NewSelector(m)
		moot, chosen := 0, 0
		for seed := int64(1); seed <= 24; seed++ {
			f := dataset.Generate(seed, 0.75).F
			rep, err := sel.SolveContext(context.Background(), f, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solver.Solve(f, dataset.SolveOptions(tc.picks, 0))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.Status != want.Status || rep.Result.Stats != want.Stats {
				t.Errorf("threshold %v, draw %d: deferred solve %v %+v; eager %s solve %v %+v",
					tc.threshold, seed, rep.Result.Status, rep.Result.Stats, tc.picks.Name(), want.Status, want.Stats)
			}
			ch := rep.Choice
			switch {
			case ch.Fallback == FallbackNoReduction && ch.Policy.Name() == "default" && ch.Inference == 0:
				moot++
			case ch.Fallback == "" && ch.Policy.Name() == tc.picks.Name() && ch.Inference > 0:
				chosen++
			default:
				t.Errorf("draw %d: choice %+v, want %s or %s", seed, ch, tc.picks.Name(), FallbackNoReduction)
			}
		}
		if moot == 0 || chosen == 0 {
			t.Errorf("threshold %v: %d solves never reduced and %d chose; the draws must cover both",
				tc.threshold, moot, chosen)
		}
	}
}

// TestDeferredTracesChoiceWhenMade pins the Deferred contract: it names
// itself auto until the search first ranks learned clauses, traces its
// policy event at that moment, and delegates to its pick after.
func TestDeferredTracesChoiceWhenMade(t *testing.T) {
	m := freshModel()
	m.Threshold = 0
	var events []obs.Event
	tracer := tracerFunc(func(ev *obs.Event) { events = append(events, *ev) })
	d := NewSelector(m).Defer(gen.RandomKSAT(80, 336, 3, 2).F, tracer)
	if d.Name() != "auto" || len(events) != 0 {
		t.Fatalf("unsettled Deferred: name %q, %d events", d.Name(), len(events))
	}
	if !d.NeedsFrequency() || d.Name() != "frequency" || len(events) != 1 ||
		events[0].Type != obs.EventPolicy || events[0].Policy != "frequency" {
		t.Fatalf("first consultation: name %q, events %+v", d.Name(), events)
	}
	if ch := d.Result(); ch.Policy.Name() != "frequency" || ch.Fallback != "" || len(events) != 1 {
		t.Fatalf("result %+v after %d events, want the traced frequency pick", ch, len(events))
	}

	events = nil
	d = NewSelector(m).Defer(gen.RandomKSAT(80, 336, 3, 2).F, tracer)
	if ch := d.Result(); ch.Fallback != FallbackNoReduction || d.Name() != "default" ||
		len(events) != 1 || events[0].Fallback != FallbackNoReduction {
		t.Fatalf("unconsulted Deferred settled as %+v (name %q), events %+v", ch, d.Name(), events)
	}
}

// tracerFunc adapts a function to obs.Tracer.
type tracerFunc func(*obs.Event)

func (f tracerFunc) Trace(ev *obs.Event) { f(ev) }

// probLookup is a deterministic predictor keyed by formula identity,
// letting the calibration tests control the probability landscape exactly.
func probLookup(probs map[*cnf.Formula]float64) func(*cnf.Formula) float64 {
	return func(f *cnf.Formula) float64 { return probs[f] }
}

func TestCalibrateThresholdPrefersGainfulCut(t *testing.T) {
	// Three items: a confident winner (p=0.85, gain +200), a mid-confidence
	// loser (p=0.55, gain −500), a low loser (p=0.1, gain −100). The best
	// cut is 0.6–0.8: taking only the winner.
	fa, fb, fc := gen.RandomKSAT(10, 40, 3, 1).F, gen.RandomKSAT(10, 40, 3, 2).F, gen.RandomKSAT(10, 40, 3, 3).F
	probs := map[*cnf.Formula]float64{fa: 0.85, fb: 0.55, fc: 0.1}
	items := []dataset.Labeled{
		{Inst: gen.Instance{F: fa}, PropsDefault: 1000, PropsFrequency: 800},
		{Inst: gen.Instance{F: fb}, PropsDefault: 1000, PropsFrequency: 1500},
		{Inst: gen.Instance{F: fc}, PropsDefault: 1000, PropsFrequency: 1100},
	}
	th := CalibrateThresholdFunc(probLookup(probs), items)
	if th <= 0.55 || th > 0.85 {
		t.Fatalf("threshold %v should isolate the gainful item", th)
	}
	total := int64(0)
	for _, it := range items {
		if probs[it.Inst.F] >= th {
			total += it.PropsDefault - it.PropsFrequency
		}
	}
	if total != 200 {
		t.Fatalf("captured gain = %d, want 200", total)
	}
}

func TestCalibrateThresholdAllLossesMeansNever(t *testing.T) {
	f := gen.RandomKSAT(10, 40, 3, 4).F
	items := []dataset.Labeled{
		{Inst: gen.Instance{F: f}, PropsDefault: 100, PropsFrequency: 200},
	}
	th := CalibrateThresholdFunc(probLookup(map[*cnf.Formula]float64{f: 0.99}), items)
	if th <= 1 {
		t.Fatalf("all-loss calibration must return never-select, got %v", th)
	}
}

func TestCalibrateThresholdModelWrapper(t *testing.T) {
	// The model-based wrapper must agree with the functional form.
	m := freshModel()
	var items []dataset.Labeled
	for s := int64(0); s < 4; s++ {
		items = append(items, dataset.Labeled{
			Inst:         gen.Instance{F: gen.RandomKSAT(12, 48, 3, s).F},
			PropsDefault: 100, PropsFrequency: 90,
		})
	}
	if CalibrateThreshold(m, items) != CalibrateThresholdFunc(m.Predict, items) {
		t.Fatal("wrapper and functional calibration disagree")
	}
}

func TestRaceAgreesWithSequential(t *testing.T) {
	instances := []gen.Instance{
		gen.Pigeonhole(5),
		gen.NQueens(6),
		gen.RandomKSAT(60, 255, 3, 4),
		gen.Tseitin(14, 3, false, 5),
	}
	for _, in := range instances {
		seq, err := solver.Solve(in.F, dataset.SolveOptions(nil, 100000))
		if err != nil {
			t.Fatal(err)
		}
		race, err := SolveParallel(in.F, raceConfig(100000))
		if err != nil {
			t.Fatal(err)
		}
		if race.Result.Status != seq.Status {
			t.Fatalf("%s: race %v vs sequential %v", in.Name, race.Result.Status, seq.Status)
		}
		if race.Winner != "w0:default" && race.Winner != "w1:frequency" {
			t.Fatalf("winner %q", race.Winner)
		}
		if race.Result.Status == solver.Sat && !race.Result.Model.Satisfies(in.F) {
			t.Fatalf("%s: race model invalid", in.Name)
		}
	}
}

func TestRaceBothBudgetsExhausted(t *testing.T) {
	inst := gen.Pigeonhole(9)
	race, err := SolveParallel(inst.F, raceConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	if race.Result.Status != solver.Unknown {
		t.Fatalf("tiny budget should exhaust: %v", race.Result.Status)
	}
}
