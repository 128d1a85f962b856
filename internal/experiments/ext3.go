package experiments

import (
	"context"
	"fmt"
	"strings"

	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/solver"
	"neuroselect/internal/sweep"
)

// AlphaSweepResult probes the Eq. 2 threshold factor α, which the paper
// fixes at 4/5 "according to our empirical studies". For each α the
// frequency policy relabels the corpus; the table reports how often it
// beats the default policy (≥2% fewer propagations) and the mean relative
// change, reproducing the kind of sweep behind the paper's choice.
type AlphaSweepResult struct {
	Alphas []float64
	// WinRate[i] is the fraction of diverging instances the α-variant wins.
	WinRate []float64
	// MeanGain[i] is the mean relative propagation change vs default.
	MeanGain []float64
	// Diverged[i] counts instances whose runs differ at all.
	Diverged  []int
	Instances int
}

// AlphaSweep relabels the corpus under several α values, sharding the
// α×instance grid across the sweep engine.
func (r *Runner) AlphaSweep() (AlphaSweepResult, error) {
	c, err := r.Corpus()
	if err != nil {
		return AlphaSweepResult{}, err
	}
	items := append(c.All(), c.Test.Items...)
	res := AlphaSweepResult{Alphas: []float64{0.5, 0.7, 0.8, 0.9}}
	res.Instances = len(items)
	cells, errs := sweepCells(r, "ext-alpha", len(res.Alphas)*len(items),
		func(ctx context.Context, i int) (solver.Result, error) {
			opts := dataset.SolveOptions(deletion.FrequencyPolicy{}, r.Scale.Corpus.Budget())
			opts.Alpha = res.Alphas[i/len(items)]
			return solver.SolveContext(ctx, items[i%len(items)].Inst.F, opts)
		})
	if err := sweep.FirstError(errs); err != nil {
		return AlphaSweepResult{}, err
	}
	for a := range res.Alphas {
		wins, diverged := 0, 0
		gain := 0.0
		n := 0
		for j, it := range items {
			fres := cells[a*len(items)+j]
			if fres.Status == solver.Unknown && !it.SolvedBoth() {
				continue
			}
			n++
			def := float64(it.PropsDefault)
			freq := float64(fres.Stats.Propagations)
			if freq != def {
				diverged++
			}
			if def > 0 {
				gain += (def - freq) / def
			}
			if freq <= 0.98*def {
				wins++
			}
		}
		if n == 0 {
			n = 1
		}
		res.WinRate = append(res.WinRate, float64(wins)/float64(n))
		res.MeanGain = append(res.MeanGain, gain/float64(n))
		res.Diverged = append(res.Diverged, diverged)
	}
	return res, nil
}

// Render prints the α sweep.
func (a AlphaSweepResult) Render() string {
	rows := make([][]string, 0, len(a.Alphas))
	for i, alpha := range a.Alphas {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", alpha),
			fmt.Sprintf("%d", a.Diverged[i]),
			fmt.Sprintf("%.1f%%", 100*a.WinRate[i]),
			fmt.Sprintf("%+.2f%%", 100*a.MeanGain[i]),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — Eq. 2 α sweep over %d instances (paper fixes α=4/5)\n", a.Instances)
	sb.WriteString(table([]string{"alpha", "diverged", "win rate (≥2%)", "mean gain"}, rows))
	return sb.String()
}
