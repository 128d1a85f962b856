package portfolio

import (
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/gen"
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

func TestSolveProducesVerifiedResult(t *testing.T) {
	sel := NewSelector(freshModel())
	inst := gen.Pigeonhole(5)
	rep, err := sel.Solve(inst.F, 50000)
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
	rep2, err := sel.Solve(sat.F, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Result.Status != solver.Sat || !rep2.Result.Model.Satisfies(sat.F) {
		t.Fatal("queens-6 model must verify")
	}
}

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
		race, err := Race(in.F, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if race.Result.Status != seq.Status {
			t.Fatalf("%s: race %v vs sequential %v", in.Name, race.Result.Status, seq.Status)
		}
		if race.Winner != "default" && race.Winner != "frequency" {
			t.Fatalf("winner %q", race.Winner)
		}
		if race.Result.Status == solver.Sat && !race.Result.Model.Satisfies(in.F) {
			t.Fatalf("%s: race model invalid", in.Name)
		}
	}
}

func TestRaceBothBudgetsExhausted(t *testing.T) {
	inst := gen.Pigeonhole(9)
	race, err := Race(inst.F, 20)
	if err != nil {
		t.Fatal(err)
	}
	if race.Result.Status != solver.Unknown {
		t.Fatalf("tiny budget should exhaust: %v", race.Result.Status)
	}
}
