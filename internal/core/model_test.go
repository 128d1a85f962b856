package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/satgraph"
)

func tinyGraph() *satgraph.VCG {
	f := cnf.New(3)
	f.MustAddClause(-1, 2)
	f.MustAddClause(-2, 3)
	return satgraph.BuildVCG(f)
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	m := NewModel(Config{Hidden: 8, HGTLayers: 2, MPLayers: 2, Attention: true, Seed: 1})
	g := tinyGraph()
	p1 := m.PredictGraph(g)
	p2 := m.PredictGraph(g)
	if p1 != p2 {
		t.Fatalf("inference not deterministic: %v vs %v", p1, p2)
	}
	if p1 <= 0 || p1 >= 1 {
		t.Fatalf("probability out of range: %v", p1)
	}
}

func TestPredictFormulaMatchesGraph(t *testing.T) {
	m := NewModel(Config{Hidden: 8, Seed: 2})
	f := cnf.New(4)
	f.MustAddClause(1, -2, 3)
	f.MustAddClause(-1, 4)
	if m.Predict(f) != m.PredictGraph(satgraph.BuildVCG(f)) {
		t.Fatal("Predict and PredictGraph disagree")
	}
}

func TestAttentionChangesOutput(t *testing.T) {
	with := NewModel(Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 3})
	without := NewModel(Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: false, Seed: 3})
	if with.Params.Count() <= without.Params.Count() {
		t.Fatal("attention must add parameters")
	}
	g := satgraph.BuildVCG(gen.RandomKSAT(20, 60, 3, 1).F)
	if with.PredictGraph(g) == without.PredictGraph(g) {
		t.Fatal("attention block had no effect on the output")
	}
}

func TestGradientsFlowToAllParameters(t *testing.T) {
	m := NewModel(Config{Hidden: 6, HGTLayers: 2, MPLayers: 2, Attention: true, Seed: 4})
	g := satgraph.BuildVCG(gen.RandomKSAT(15, 50, 3, 2).F)
	tape := autodiff.NewTape()
	m.Params.Bind(tape)
	loss := tape.BCEWithLogits(m.Logit(tape, g), 1)
	tape.Backward(loss)
	if n := m.Params.GradNorm(); n == 0 || math.IsNaN(n) {
		t.Fatalf("gradient norm = %v", n)
	}
}

func TestTrainingReducesLossOnSeparableTask(t *testing.T) {
	var samples []Sample
	for s := int64(0); s < 8; s++ {
		r := gen.RandomKSAT(30, 126, 3, s)
		samples = append(samples, Sample{Name: r.Name, G: satgraph.BuildVCG(r.F), Label: 0})
		c := gen.GraphColoring(8, 18, 3, s)
		samples = append(samples, Sample{Name: c.Name, G: satgraph.BuildVCG(c.F), Label: 1})
	}
	m := NewModel(Config{Hidden: 8, HGTLayers: 1, MPLayers: 2, Attention: true, Seed: 5})
	var first float64
	gotFirst := false
	last := Train(m, samples, TrainConfig{Epochs: 12, LR: 1e-2, Seed: 1, OnEpoch: func(e int, l float64) {
		if !gotFirst {
			first, gotFirst = l, true
		}
	}})
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
	if acc := Accuracy(m, samples); acc < 0.9 {
		t.Fatalf("separable task accuracy = %v", acc)
	}
}

func TestBalancedPosWeight(t *testing.T) {
	samples := []Sample{{Label: 1}, {Label: 0}, {Label: 0}, {Label: 0}}
	if w := BalancedPosWeight(samples); w != 3 {
		t.Fatalf("weight = %v, want 3", w)
	}
	if w := BalancedPosWeight([]Sample{{Label: 0}}); w != 1 {
		t.Fatal("degenerate class must fall back to 1")
	}
	if w := BalancedPosWeight(nil); w != 1 {
		t.Fatal("empty must fall back to 1")
	}
}

func TestSaveLoadPreservesPredictions(t *testing.T) {
	m := NewModel(Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 6})
	g := tinyGraph()
	before := m.PredictGraph(g)
	var buf bytes.Buffer
	if err := m.SaveFile(&buf); err != nil {
		t.Fatal(err)
	}
	// Rewrite the stored seed, so the loader's freshly initialized model
	// predicts differently and only the payload can restore the weights.
	var mf modelFile
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatal(err)
	}
	mf.Config.Seed = 7
	if NewModel(mf.Config).PredictGraph(g) == before {
		t.Fatal("seeds 6 and 7 initialize identical models; the test cannot tell a load")
	}
	reseeded, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFile(bytes.NewReader(reseeded))
	if err != nil {
		t.Fatal(err)
	}
	if m2.PredictGraph(g) != before {
		t.Fatal("load did not restore the model")
	}
}

func TestPaperAndDefaultConfigs(t *testing.T) {
	p := PaperConfig()
	if p.Hidden != 32 || p.HGTLayers != 2 || p.MPLayers != 3 || !p.Attention {
		t.Fatalf("paper config drifted: %+v", p)
	}
	d := DefaultConfig()
	if d.Hidden == 0 || !d.Attention {
		t.Fatalf("default config: %+v", d)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := NewModel(Config{Hidden: 4, Seed: 7})
	if Accuracy(m, nil) != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}

func TestEmptyVariableGraph(t *testing.T) {
	// A formula with clauses only over no variables cannot occur, but an
	// empty formula can: the model must not panic on a 0-variable graph.
	f := cnf.New(0)
	g := satgraph.BuildVCG(f)
	m := NewModel(Config{Hidden: 4, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 8})
	p := m.PredictGraph(g)
	if math.IsNaN(p) {
		t.Fatalf("prediction on empty graph = %v", p)
	}
}

func TestPaperConfigForwardBackward(t *testing.T) {
	// The full §5.2 configuration (hidden 32, 2 HGT layers, 3 MP layers)
	// must run a complete forward+backward pass.
	m := NewModel(PaperConfig())
	g := satgraph.BuildVCG(gen.RandomKSAT(40, 170, 3, 1).F)
	tape := autodiff.NewTape()
	m.Params.Bind(tape)
	loss := tape.BCEWithLogits(m.Logit(tape, g), 1)
	tape.Backward(loss)
	if n := m.Params.GradNorm(); n == 0 || math.IsNaN(n) {
		t.Fatalf("paper config gradient norm %v", n)
	}
	if m.Params.Count() < 10000 {
		t.Fatalf("paper config should have >10k parameters, got %d", m.Params.Count())
	}
}
