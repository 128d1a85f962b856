package experiments

import (
	"context"
	"fmt"
	"strings"

	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/metrics"
	"neuroselect/internal/solver"
	"neuroselect/internal/sweep"
)

// PolicyPoolResult is an extension experiment beyond the paper's
// evaluation: the full deletion-policy pool (default, frequency, activity,
// size) compared head-to-head over the corpus, quantifying how much policy
// diversity a richer selector could exploit — the paper's closing
// direction of "diversifying existing clause deletion policies".
type PolicyPoolResult struct {
	Policies  []string
	Summaries []metrics.Summary
	// Wins[i] counts instances where policy i was the strict minimum.
	Wins []int
	// OracleMedian is the per-instance best over the whole pool.
	OracleMedian float64
	Instances    int
}

// PolicyPool compares all four policies over every corpus instance. The
// default and frequency columns are the labeling pass's solves; only the
// activity and size columns are solved here, sharding that instance×policy
// matrix across the sweep engine.
func (r *Runner) PolicyPool() (PolicyPoolResult, error) {
	c, err := r.Corpus()
	if err != nil {
		return PolicyPoolResult{}, err
	}
	pool := []deletion.Policy{
		deletion.DefaultPolicy{}, deletion.FrequencyPolicy{},
		deletion.ActivityPolicy{}, deletion.SizePolicy{},
	}
	swept := pool[2:] // the labels hold the first two columns
	res := PolicyPoolResult{Wins: make([]int, len(pool))}
	for _, p := range pool {
		res.Policies = append(res.Policies, p.Name())
	}
	items := append(c.All(), c.Test.Items...)
	costs := make([][]float64, len(pool))
	solved := make([][]bool, len(pool))
	var oracle []float64
	var oracleSolved []bool
	cells, errs := sweepCells(r, "ext-policies", len(items)*len(swept),
		func(ctx context.Context, i int) (solver.Result, error) {
			it, p := items[i/len(swept)], swept[i%len(swept)]
			return solver.SolveContext(ctx, it.Inst.F, dataset.SolveOptions(p, r.Scale.Corpus.Budget()))
		})
	if err := sweep.FirstError(errs); err != nil {
		return PolicyPoolResult{}, err
	}
	for j, it := range items {
		row := []float64{float64(it.PropsDefault), float64(it.PropsFrequency)}
		rowSolved := []bool{it.SolvedDefault, it.SolvedFrequency}
		for _, sres := range cells[j*len(swept) : (j+1)*len(swept)] {
			row = append(row, float64(sres.Stats.Propagations))
			rowSolved = append(rowSolved, sres.Status != solver.Unknown)
		}
		best := -1.0
		bestIdx := -1
		for i := range pool {
			if rowSolved[i] && (best < 0 || row[i] < best) {
				best, bestIdx = row[i], i
			}
		}
		if bestIdx < 0 {
			continue
		}
		res.Instances++
		strict := true
		for i := range pool {
			costs[i] = append(costs[i], row[i])
			solved[i] = append(solved[i], rowSolved[i])
			if i != bestIdx && rowSolved[i] && row[i] == best {
				strict = false
			}
		}
		if strict {
			res.Wins[bestIdx]++
		}
		oracle = append(oracle, best)
		oracleSolved = append(oracleSolved, true)
	}
	for i := range pool {
		res.Summaries = append(res.Summaries, metrics.Summarize(costs[i], solved[i]))
	}
	res.OracleMedian = metrics.Summarize(oracle, oracleSolved).Median
	return res, nil
}

// Render prints the policy-pool comparison.
func (p PolicyPoolResult) Render() string {
	rows := make([][]string, 0, len(p.Policies))
	for i, name := range p.Policies {
		s := p.Summaries[i]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", s.Solved),
			fmt.Sprintf("%.0f", s.Median),
			fmt.Sprintf("%.0f", s.Average),
			fmt.Sprintf("%d", p.Wins[i]),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — deletion-policy pool over %d instances\n", p.Instances)
	sb.WriteString(table([]string{"policy", "solved", "median props", "avg props", "strict wins"}, rows))
	fmt.Fprintf(&sb, "  pool oracle median: %.0f propagations\n", p.OracleMedian)
	return sb.String()
}
