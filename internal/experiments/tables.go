package experiments

import (
	"fmt"
	"strings"

	"neuroselect/internal/baselines"
	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/metrics"
)

// Table1Result carries the dataset-statistics rows of the paper's Table 1.
type Table1Result struct {
	Rows []dataset.StratumStats
}

// Table1 builds the corpus and reports its per-stratum statistics.
func (r *Runner) Table1() (Table1Result, error) {
	c, err := r.Corpus()
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Rows: c.Table1()}, nil
}

// Render prints the Table 1 analogue.
func (t Table1Result) Render() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, s := range t.Rows {
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.NumCNFs),
			fmt.Sprintf("%.0f", s.MeanVars),
			fmt.Sprintf("%.0f", s.MeanClauses),
			fmt.Sprintf("%.2f", s.PosRate),
		})
	}
	return "Table 1 — dataset statistics (generator strata replace competition years)\n" +
		table([]string{"stratum", "#CNFs", "mean vars", "mean clauses", "label-1 rate"}, rows)
}

// Table2Row is one classifier's evaluation in the Table 2 comparison.
type Table2Row struct {
	Name      string
	Confusion metrics.Confusion
}

// Table2Result holds all classifier rows, paper order.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 trains the two baselines, NeuroSelect without attention, and full
// NeuroSelect on the same corpus and evaluates all four on the held-out
// test stratum.
func (r *Runner) Table2() (Table2Result, error) {
	c, err := r.Corpus()
	if err != nil {
		return Table2Result{}, err
	}
	trainItems := c.All()
	testItems := c.Test.Items

	// The baselines train with unweighted BCE, matching their original
	// recipes.
	formulas := make([]*cnf.Formula, len(trainItems))
	labels := make([]int, len(trainItems))
	for i, it := range trainItems {
		formulas[i] = it.Inst.F
		labels[i] = it.Label
	}

	var out Table2Result
	eval := func(name string, predict func(*cnf.Formula) float64) {
		var cm metrics.Confusion
		for _, it := range testItems {
			cm.Add(predict(it.Inst.F) >= 0.5, it.Label == 1)
		}
		out.Rows = append(out.Rows, Table2Row{Name: name, Confusion: cm})
	}

	h := r.Scale.Model.Hidden
	r.logf("table2: training NeuroSAT baseline...")
	ns := baselines.NewNeuroSAT(h, 4, 5)
	ns.Fit(formulas, labels, r.Scale.BaselineEpochs, 1e-3, 1)
	eval(ns.Name(), ns.Predict)

	r.logf("table2: training GIN baseline...")
	gin := baselines.NewGIN(h, 3, 5)
	gin.Fit(formulas, labels, r.Scale.BaselineEpochs, 1e-3, 1)
	eval(gin.Name(), gin.Predict)

	r.logf("table2: training NeuroSelect w/o attention...")
	cfgNoAttn := r.Scale.Model
	cfgNoAttn.Attention = false
	noAttn, _ := r.train(cfgNoAttn, Samples(trainItems))
	eval("NeuroSelect w/o attention", noAttn.Predict)

	m, err := r.TrainedModel()
	if err != nil {
		return Table2Result{}, err
	}
	eval("NeuroSelect", m.Predict)
	return out, nil
}

// Render prints the Table 2 analogue.
func (t Table2Result) Render() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		cm := r.Confusion
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.2f%%", 100*cm.Precision()),
			fmt.Sprintf("%.2f%%", 100*cm.Recall()),
			fmt.Sprintf("%.2f%%", 100*cm.F1()),
			fmt.Sprintf("%.2f%%", 100*cm.Accuracy()),
		})
	}
	return "Table 2 — SAT classification models on the held-out stratum\n" +
		table([]string{"model", "precision", "recall", "F1", "accuracy"}, rows)
}

// Table3Result is the runtime-statistics comparison of Table 3, in the
// reproduction's deterministic measure (propagations) and wall-clock time.
type Table3Result struct {
	Budget          int64
	Kissat          metrics.Summary
	NeuroSelect     metrics.Summary
	KissatTime      metrics.Summary // milliseconds
	NeuroSelectTime metrics.Summary // milliseconds, inference included
	// MedianImprovement is the paper's headline number: relative median
	// reduction of NeuroSelect-Kissat vs Kissat.
	MedianImprovement float64
	// Failures are the isolated per-instance failures of the run; they
	// appear as failure rows below the table instead of aborting it.
	Failures []InstanceFailure
}

// Render prints the Table 3 analogue.
func (t Table3Result) Render() string {
	row := func(name string, s metrics.Summary, st metrics.Summary) []string {
		return []string{
			name,
			fmt.Sprintf("%d", s.Solved),
			fmt.Sprintf("%.0f", s.Median),
			fmt.Sprintf("%.0f", s.Average),
			fmt.Sprintf("%.2f", st.Median),
			fmt.Sprintf("%.2f", st.Average),
		}
	}
	var sb strings.Builder
	sb.WriteString("Table 3 — runtime statistics on the held-out stratum\n")
	sb.WriteString(table(
		[]string{"solver", "solved", "median props", "avg props", "median ms", "avg ms"},
		[][]string{
			row("Kissat (default policy)", t.Kissat, t.KissatTime),
			row("NeuroSelect-Kissat", t.NeuroSelect, t.NeuroSelectTime),
		}))
	fmt.Fprintf(&sb, "  median improvement: %+.2f%% (paper reports +5.8%% runtime on industrial benchmarks)\n",
		100*t.MedianImprovement)
	for _, f := range t.Failures {
		fmt.Fprintf(&sb, "  failure: %s\n", f)
	}
	return sb.String()
}
