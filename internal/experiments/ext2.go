package experiments

import (
	"context"
	"fmt"
	"strings"

	"neuroselect/internal/baselines"
	"neuroselect/internal/cnf"
	"neuroselect/internal/metrics"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
	"neuroselect/internal/sweep"
)

// SelectorsResult is the second extension experiment: it pits the learned
// NeuroSelect selector against (a) a classical logistic regression over 14
// hand-crafted CNF statistics, and (b) the parallel two-policy race (2× CPU
// for the virtual-best result). Classification quality and end-to-end
// propagation cost are reported together.
type SelectorsResult struct {
	Logistic    metrics.Confusion
	NeuroSelect metrics.Confusion
	// Cost summaries over the test stratum.
	Default    metrics.Summary
	Neuro      metrics.Summary
	LogisticPF metrics.Summary
	RaceWall   metrics.Summary // wall-clock ms of the 2×-CPU race
	RaceProps  metrics.Summary
}

// Selectors runs the extension comparison.
func (r *Runner) Selectors() (SelectorsResult, error) {
	c, err := r.Corpus()
	if err != nil {
		return SelectorsResult{}, err
	}
	sel, err := r.Selector()
	if err != nil {
		return SelectorsResult{}, err
	}
	trainItems := c.All()
	var fs []*cnf.Formula
	var labels []int
	for _, it := range trainItems {
		fs = append(fs, it.Inst.F)
		labels = append(labels, it.Label)
	}
	logit := baselines.NewLogistic()
	logit.Fit(fs, labels, 80, 0.05, 1)
	logitTh := portfolio.CalibrateThresholdFunc(logit.Predict, trainItems)

	var out SelectorsResult
	var defCost, neuroCost, logitCost, raceProps, raceMS []float64
	var solved []bool
	budget := r.Scale.ScatterBudget
	items := c.Test.Items
	// Each predictor runs once per item, serially: inference is cheap next
	// to the expensive part — one 2-worker race per instance — which is
	// sharded across the sweep engine. Free-running race outcomes depend
	// on scheduling; in Deterministic mode the race runs as a lockstep
	// 2-worker portfolio instead, so the whole experiment is under the
	// byte-identical guarantee and RaceWall reports propagation
	// pseudo-time.
	for _, it := range items {
		logitProb := logit.Predict(it.Inst.F)
		ch := sel.Choose(it.Inst.F)
		out.Logistic.Add(logitProb >= 0.5, it.Label == 1)
		out.NeuroSelect.Add(ch.Prob >= 0.5, it.Label == 1)

		// Costs: the labeling pass already measured both policies at this
		// budget, so selector costs are table lookups.
		def := float64(it.PropsDefault)
		freq := float64(it.PropsFrequency)
		defCost = append(defCost, def)
		pick := func(frequency bool) float64 {
			if frequency {
				return freq
			}
			return def
		}
		neuroCost = append(neuroCost, pick(ch.Policy.Name() == "frequency"))
		logitCost = append(logitCost, pick(logitProb >= logitTh))
	}
	races, errs := sweepCells(r, "ext-selectors", len(items),
		func(ctx context.Context, i int) (portfolio.RaceReport, error) {
			if r.Deterministic {
				// One OS worker per cell: the instances are already sharded
				// across the sweep pool, and the race outcome is identical
				// for any inner worker count anyway.
				return portfolio.RaceDeterministic(ctx, items[i].Inst.F, budget, 1)
			}
			return portfolio.RaceContext(ctx, items[i].Inst.F, budget)
		})
	if err := sweep.FirstError(errs); err != nil {
		return SelectorsResult{}, err
	}
	for i, it := range items {
		race := races[i]
		raceProps = append(raceProps, float64(race.Result.Stats.Propagations))
		raceMS = append(raceMS, float64(race.WallTime.Microseconds())/1000)
		solved = append(solved, it.SolvedBoth && race.Result.Status != solver.Unknown)
	}
	out.Default = metrics.Summarize(defCost, solved)
	out.Neuro = metrics.Summarize(neuroCost, solved)
	out.LogisticPF = metrics.Summarize(logitCost, solved)
	out.RaceProps = metrics.Summarize(raceProps, solved)
	out.RaceWall = metrics.Summarize(raceMS, solved)
	return out, nil
}

// Render prints the extension comparison.
func (s SelectorsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension — selector families on the held-out stratum\n")
	sb.WriteString("classification quality:\n")
	sb.WriteString(table(
		[]string{"selector", "precision", "recall", "F1", "accuracy"},
		[][]string{
			confusionRow("Logistic (14 features)", s.Logistic),
			confusionRow("NeuroSelect (HGT)", s.NeuroSelect),
		}))
	sb.WriteString("end-to-end cost (median / average propagations):\n")
	row := func(name string, m metrics.Summary) []string {
		return []string{name, fmt.Sprintf("%.0f", m.Median), fmt.Sprintf("%.0f", m.Average)}
	}
	sb.WriteString(table(
		[]string{"system", "median", "average"},
		[][]string{
			row("always default (Kissat)", s.Default),
			row("logistic portfolio", s.LogisticPF),
			row("NeuroSelect portfolio", s.Neuro),
			row("2-way race (2x CPU)", s.RaceProps),
		}))
	fmt.Fprintf(&sb, "  race wall-clock: median %.2f ms\n", s.RaceWall.Median)
	return sb.String()
}

func confusionRow(name string, c metrics.Confusion) []string {
	return []string{
		name,
		fmt.Sprintf("%.2f%%", 100*c.Precision()),
		fmt.Sprintf("%.2f%%", 100*c.Recall()),
		fmt.Sprintf("%.2f%%", 100*c.F1()),
		fmt.Sprintf("%.2f%%", 100*c.Accuracy()),
	}
}
