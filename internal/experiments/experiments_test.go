package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/portfolio"
)

// quickRunner returns a Runner small enough for test time; the corpus and
// model memoize across sub-tests through the shared Runner.
func quickRunner() *Runner {
	s := QuickScale()
	s.Corpus.TrainStrata = 2
	s.Corpus.PerStratum = 4
	s.Corpus.TestSize = 5
	s.Corpus.MaxConflicts = 10000
	s.ScatterBudget = 10000
	s.Train.Epochs = 2
	s.BaselineEpochs = 1
	return NewRunner(s)
}

func TestFig3(t *testing.T) {
	r := quickRunner()
	res, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deciles) != 11 {
		t.Fatalf("deciles = %d", len(res.Deciles))
	}
	for i := 1; i < len(res.Deciles); i++ {
		if res.Deciles[i] < res.Deciles[i-1] {
			t.Fatal("deciles must be nondecreasing")
		}
	}
	if res.TopShare <= 0 || res.TopShare > 1 {
		t.Fatalf("top share = %v", res.TopShare)
	}
	// The top 10% of variables must carry at least 10% of propagations.
	if res.TopShare < 0.1 {
		t.Fatalf("top-decile share %v below uniform floor", res.TopShare)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "100%") {
		t.Fatalf("render: %q", out)
	}
}

func TestFig5(t *testing.T) {
	r := quickRunner()
	res, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Examples) == 0 {
		t.Fatal("no examples")
	}
	// Equal (glue,size) pairs must tie under default and split by
	// frequency under the new layout.
	a, b := res.Examples[0], res.Examples[1]
	if a.DefaultScore != b.DefaultScore {
		t.Fatal("default layout must ignore frequency")
	}
	if a.NewScore >= b.NewScore {
		t.Fatal("new layout must rank the higher-frequency clause above")
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Fatal("render")
	}
}

func TestCorpusAndTable1(t *testing.T) {
	r := quickRunner()
	res, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // 2 train strata + test
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "test-2022") {
		t.Fatalf("render: %q", out)
	}
}

func TestFig4ScatterProperties(t *testing.T) {
	r := quickRunner()
	res, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no scatter points")
	}
	if res.Below+res.Above+res.On != len(res.Points) {
		t.Fatal("diagonal counts must partition the points")
	}
	for _, p := range res.Points {
		if !p.XSolved && !p.YSolved {
			t.Fatalf("%s: unsolved-by-both must be excluded", p.Name)
		}
		if p.X < 0 || p.Y < 0 {
			t.Fatalf("%s: negative cost", p.Name)
		}
	}
	if !strings.Contains(res.Render(), "diagonal") {
		t.Fatal("render")
	}
}

func TestTable2RowsAndOrder(t *testing.T) {
	r := quickRunner()
	res, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	wantOrder := []string{"NeuroSAT", "G4SATBench (GIN)", "NeuroSelect w/o attention", "NeuroSelect"}
	for i, w := range wantOrder {
		if res.Rows[i].Name != w {
			t.Fatalf("row %d = %q, want %q", i, res.Rows[i].Name, w)
		}
		cm := res.Rows[i].Confusion
		if cm.Total() != 5 { // test size
			t.Fatalf("row %d evaluated %d instances", i, cm.Total())
		}
	}
	if !strings.Contains(res.Render(), "accuracy") {
		t.Fatal("render")
	}
}

func TestFig7AndTable3(t *testing.T) {
	r := quickRunner()
	res, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// Portfolio never solves fewer instances than captured points require.
	t3 := res.Table3
	if t3.Kissat.Solved+t3.Kissat.Timeout != len(res.Points()) {
		t.Fatalf("summary counts %d+%d vs %d points",
			t3.Kissat.Solved, t3.Kissat.Timeout, len(res.Points()))
	}
	if len(res.InferenceMS) == 0 {
		t.Fatal("inference times must be collected")
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "inference time") {
		t.Fatalf("render: %q", out)
	}
	if !strings.Contains(t3.Render(), "Table 3") {
		t.Fatal("table3 render")
	}
}

func TestRunAllAndOnlySelection(t *testing.T) {
	r := quickRunner()
	var buf bytes.Buffer
	if err := r.RunAll(&buf, "fig5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("only=fig5 output")
	}
	if strings.Contains(buf.String(), "Table 1") {
		t.Fatal("only=fig5 must not run table1")
	}
	if err := r.RunAll(&buf, "bogus"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestScalesAreSane(t *testing.T) {
	q, d := QuickScale(), DefaultScale()
	if q.Corpus.PerStratum >= d.Corpus.PerStratum {
		t.Fatal("quick must be smaller than default")
	}
	if q.Train.Epochs >= d.Train.Epochs {
		t.Fatal("quick must train less")
	}
	if q.Model.Hidden == 0 || d.Model.Hidden == 0 {
		t.Fatal("model sizes unset")
	}
}

func TestPolicyPoolExtension(t *testing.T) {
	r := quickRunner()
	res, err := r.PolicyPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 4 || len(res.Summaries) != 4 {
		t.Fatalf("pool size %d", len(res.Policies))
	}
	if res.Instances == 0 {
		t.Fatal("no instances compared")
	}
	// The oracle can never be worse than any single policy's median.
	for i, s := range res.Summaries {
		if s.Solved > 0 && res.OracleMedian > s.Median {
			t.Fatalf("oracle median %v above policy %s median %v",
				res.OracleMedian, res.Policies[i], s.Median)
		}
	}
	if !strings.Contains(res.Render(), "oracle") {
		t.Fatal("render")
	}
}

func TestSelectorsExtension(t *testing.T) {
	r := quickRunner()
	res, err := r.Selectors()
	if err != nil {
		t.Fatal(err)
	}
	if res.Logistic.Total() == 0 || res.NeuroSelect.Total() == 0 {
		t.Fatal("classifiers not evaluated")
	}
	// The race outcome depends on scheduling, so only its structure is
	// asserted: results were collected and timed.
	if res.RaceProps.Solved == 0 {
		t.Fatal("race solved nothing at quick scale")
	}
	if res.RaceWall.Median <= 0 {
		t.Fatal("race wall-clock must be recorded")
	}
	out := res.Render()
	if !strings.Contains(out, "race") || !strings.Contains(out, "Logistic") {
		t.Fatalf("render: %q", out)
	}
}

func TestAlphaSweepExtension(t *testing.T) {
	r := quickRunner()
	res, err := r.AlphaSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alphas) != 4 || len(res.WinRate) != 4 || len(res.MeanGain) != 4 {
		t.Fatalf("sweep shape: %+v", res)
	}
	for i := range res.Alphas {
		if res.WinRate[i] < 0 || res.WinRate[i] > 1 {
			t.Fatalf("win rate out of range: %v", res.WinRate[i])
		}
	}
	if !strings.Contains(res.Render(), "alpha") {
		t.Fatal("render")
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := quickRunner()
	c1, err := r.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := r.Corpus()
	if c1 != c2 {
		t.Fatal("corpus must be memoized")
	}
	m1, err := r.TrainedModel()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := r.TrainedModel()
	if m1 != m2 {
		t.Fatal("model must be memoized")
	}
	s1, err := r.Selector()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Model != m1 {
		t.Fatal("selector must wrap the memoized model")
	}
}

// TestTrainedModelCarriesThreshold pins the one calibration: the trained
// model holds the threshold calibrated on the training strata, and a
// selector built from the model file decides exactly as the runner's.
func TestTrainedModelCarriesThreshold(t *testing.T) {
	r := quickRunner()
	m, err := r.TrainedModel()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := r.Corpus()
	if want := portfolio.CalibrateThreshold(m, c.All()); m.Threshold != want {
		t.Fatalf("trained threshold %v, calibration gives %v", m.Threshold, want)
	}
	roundTrip := func() *core.Model {
		t.Helper()
		var buf bytes.Buffer
		if err := m.SaveFile(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadModelFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	if got := roundTrip().Threshold; got != m.Threshold {
		t.Fatalf("threshold %v loaded as %v", m.Threshold, got)
	}

	// At the median probability both policies occur, so the comparison
	// below covers both sides of the rule.
	items := append(append([]dataset.Labeled(nil), c.All()...), c.Test.Items...)
	var probs []float64
	for _, it := range items {
		probs = append(probs, m.Predict(it.Inst.F))
	}
	sort.Float64s(probs)
	m.Threshold = probs[len(probs)/2]
	fromFile := portfolio.NewSelector(roundTrip())
	fromRunner, err := r.Selector()
	if err != nil {
		t.Fatal(err)
	}
	chosen := map[string]int{}
	for _, it := range items {
		want, got := fromRunner.Choose(it.Inst.F), fromFile.Choose(it.Inst.F)
		if got.Policy.Name() != want.Policy.Name() || math.Float64bits(got.Prob) != math.Float64bits(want.Prob) {
			t.Errorf("%s: file selector chose %s at p=%v, runner %s at p=%v",
				it.Inst.Name, got.Policy.Name(), got.Prob, want.Policy.Name(), want.Prob)
		}
		chosen[want.Policy.Name()]++
	}
	if chosen["default"] == 0 || chosen["frequency"] == 0 {
		t.Fatalf("median threshold %v did not split the instances: %v", m.Threshold, chosen)
	}
}

func TestRunAllJSON(t *testing.T) {
	r := quickRunner()
	var buf bytes.Buffer
	if err := r.RunAllJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Fig3 == nil || rep.Table2 == nil || rep.Fig7 == nil || rep.AlphaSweep == nil {
		t.Fatal("missing sections in JSON report")
	}
	if len(rep.Table2.Rows) != 4 {
		t.Fatalf("table2 rows: %d", len(rep.Table2.Rows))
	}
}
