package baselines

import (
	"math"
	"testing"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/satgraph"
)

func tinyFormula() *cnf.Formula {
	f := cnf.New(3)
	f.MustAddClause(-1, 2)
	f.MustAddClause(-2, 3)
	f.MustAddClause(1, 3)
	return f
}

func TestNeuroSATForward(t *testing.T) {
	m := NewNeuroSAT(8, 3, 1)
	p := m.Predict(tinyFormula())
	if p <= 0 || p >= 1 {
		t.Fatalf("probability %v", p)
	}
	if m.Predict(tinyFormula()) != p {
		t.Fatal("inference not deterministic")
	}
	if m.Name() != "NeuroSAT" {
		t.Fatal("name")
	}
}

func TestNeuroSATGradientsFlow(t *testing.T) {
	m := NewNeuroSAT(6, 2, 2)
	g := satgraph.BuildLCG(gen.RandomKSAT(10, 30, 3, 1).F)
	tp := autodiff.NewTape()
	m.Params.Bind(tp)
	loss := tp.BCEWithLogits(m.Logit(tp, g), 1)
	tp.Backward(loss)
	if n := m.Params.GradNorm(); n == 0 || math.IsNaN(n) {
		t.Fatalf("grad norm %v", n)
	}
}

func TestNeuroSATFitsSeparableTask(t *testing.T) {
	var fs []*cnf.Formula
	var labels []int
	for s := int64(0); s < 6; s++ {
		fs = append(fs, gen.RandomKSAT(20, 85, 3, s).F)
		labels = append(labels, 0)
		fs = append(fs, gen.GraphColoring(6, 12, 3, s).F)
		labels = append(labels, 1)
	}
	m := NewNeuroSAT(8, 2, 3)
	last := m.Fit(fs, labels, 30, 1e-2, 1)
	if math.IsNaN(last) {
		t.Fatal("training diverged")
	}
	correct := 0
	for i, f := range fs {
		if (m.Predict(f) >= 0.5) == (labels[i] == 1) {
			correct++
		}
	}
	if correct < len(fs)*3/4 {
		t.Fatalf("NeuroSAT separable accuracy %d/%d", correct, len(fs))
	}
}

func TestNeuroSATFlipIsUsed(t *testing.T) {
	// Flipping the polarity of every literal of one variable changes the
	// LCG and must generally change the prediction (polarity awareness via
	// the flip path).
	m := NewNeuroSAT(8, 3, 4)
	f1 := cnf.New(2)
	f1.MustAddClause(1, 2)
	f1.MustAddClause(1, -2)
	f2 := cnf.New(2)
	f2.MustAddClause(-1, 2)
	f2.MustAddClause(1, -2)
	if m.Predict(f1) == m.Predict(f2) {
		t.Fatal("polarity change had no effect")
	}
}

func TestGINForward(t *testing.T) {
	m := NewGIN(8, 2, 1)
	p := m.Predict(tinyFormula())
	if p <= 0 || p >= 1 {
		t.Fatalf("probability %v", p)
	}
	if m.Name() == "" {
		t.Fatal("name")
	}
}

func TestGINGradientsFlow(t *testing.T) {
	m := NewGIN(6, 2, 2)
	g := satgraph.BuildVCG(gen.RandomKSAT(10, 30, 3, 1).F)
	tp := autodiff.NewTape()
	m.Params.Bind(tp)
	loss := tp.BCEWithLogits(m.Logit(tp, g), 0)
	tp.Backward(loss)
	if n := m.Params.GradNorm(); n == 0 || math.IsNaN(n) {
		t.Fatalf("grad norm %v", n)
	}
	// Epsilon parameters must receive gradient too.
	found := false
	for _, eps := range m.eps {
		if g := m.Params.V(eps).Grad(); g != nil && g.Data[0] != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no gradient reached any epsilon parameter")
	}
}

func TestGINFitsSeparableTask(t *testing.T) {
	var fs []*cnf.Formula
	var labels []int
	for s := int64(0); s < 6; s++ {
		fs = append(fs, gen.RandomKSAT(20, 85, 3, s).F)
		labels = append(labels, 0)
		fs = append(fs, gen.GraphColoring(6, 12, 3, s).F)
		labels = append(labels, 1)
	}
	m := NewGIN(8, 2, 5)
	m.Fit(fs, labels, 10, 5e-3, 1)
	correct := 0
	for i, f := range fs {
		if (m.Predict(f) >= 0.5) == (labels[i] == 1) {
			correct++
		}
	}
	if correct < len(fs)*3/4 {
		t.Fatalf("GIN separable accuracy %d/%d", correct, len(fs))
	}
}

func TestLogisticFeaturesShapeAndDeterminism(t *testing.T) {
	f := gen.RandomKSAT(50, 210, 3, 1).F
	a := Features(f)
	b := Features(f)
	if len(a) != NumFeatures {
		t.Fatalf("features = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("features not deterministic")
		}
	}
	if a[2] < 4.1 || a[2] > 4.3 {
		t.Fatalf("clause/var ratio feature = %v", a[2])
	}
	empty := Features(gen.RandomKSAT(1, 0, 1, 1).F)
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty formula must featurize to zeros")
		}
	}
}

func TestLogisticFitsSeparableTask(t *testing.T) {
	var fs []*cnf.Formula
	var labels []int
	for s := int64(0); s < 10; s++ {
		fs = append(fs, gen.RandomKSAT(30, 126, 3, s).F)
		labels = append(labels, 0)
		fs = append(fs, gen.GraphColoring(8, 18, 3, s).F)
		labels = append(labels, 1)
	}
	m := NewLogistic()
	m.Fit(fs, labels, 60, 0.1, 1)
	correct := 0
	for i, f := range fs {
		if (m.Predict(f) >= 0.5) == (labels[i] == 1) {
			correct++
		}
	}
	if correct < len(fs)*9/10 {
		t.Fatalf("logistic separable accuracy %d/%d", correct, len(fs))
	}
}

func TestLogisticUntrainedIsNeutral(t *testing.T) {
	m := NewLogistic()
	if p := m.Predict(gen.RandomKSAT(10, 40, 3, 1).F); p != 0.5 {
		t.Fatalf("untrained prediction %v", p)
	}
}
