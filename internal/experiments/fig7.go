package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/metrics"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

// Fig7Result reproduces Figure 7: (a) the Kissat vs. NeuroSelect-Kissat
// scatter and (b) box plots of model inference time and per-instance
// improvement. Table 3 is derived from the same run.
type Fig7Result struct {
	Scatter ScatterResult
	// InferenceMS collects the per-instance one-time inference cost: 0 for
	// an instance whose search ended before a reduction needed a choice.
	InferenceMS []float64
	// ImprovementProps collects X−Y propagation savings for instances
	// where NeuroSelect-Kissat improved (the paper plots improvements
	// only).
	ImprovementProps []float64
	// FreqChosen counts instances routed to the frequency policy.
	FreqChosen int
	// Fallbacks counts instances where the selector bypassed inference
	// (node cap, contained inference panic or error). An instance whose
	// search never needed a choice is not a fallback.
	Fallbacks int
	// Failures lists instances whose solves failed; they are excluded
	// from the scatter and summaries but recorded as failure rows.
	Failures []InstanceFailure
	Table3   Table3Result
	// Oracle is the virtual-best-solver summary: per instance the better
	// of the two policies, the selector's headroom.
	Oracle metrics.Summary
}

// fig7Cell is one sweep cell of the Figure 7 matrix: either the plain
// default-policy solve (kissat half) or the adaptive portfolio solve
// (neuroselect half) of one test instance.
type fig7Cell struct {
	KR    solver.Result
	KTime time.Duration
	Rep   portfolio.Report
}

// Fig7 trains the selector (memoized), then solves every test instance
// under plain default ("Kissat") and under the adaptive portfolio
// ("NeuroSelect-Kissat"). The instance×system matrix is sharded across the
// sweep engine with per-cell failure isolation; aggregation walks cells in
// instance order so figures, tables, and failure rows are identical for
// every worker count.
func (r *Runner) Fig7() (Fig7Result, error) {
	sel, err := r.Selector()
	if err != nil {
		return Fig7Result{}, err
	}
	c, err := r.Corpus()
	if err != nil {
		return Fig7Result{}, err
	}
	budget := r.Scale.Corpus.Budget()
	out := Fig7Result{Scatter: ScatterResult{Title: "Figure 7(a) — Kissat vs. NeuroSelect-Kissat"}}
	var kProps, nProps, kMS, nMS, vbs []float64
	var kSolved, nSolved []bool
	items := c.Test.Items
	// A bad cell (solver panic, injected fault, per-cell deadline) is
	// recorded as a failure row for its instance; the figure/table run
	// continues.
	cells, errs := sweepCells(r, "fig7", len(items)*2,
		func(ctx context.Context, i int) (fig7Cell, error) {
			it := items[i/2]
			var cell fig7Cell
			err := isolate(func() error {
				if i%2 == 0 {
					start := time.Now()
					kr, err := solver.SolveContext(ctx, it.Inst.F, dataset.SolveOptions(deletion.DefaultPolicy{}, budget))
					if err != nil {
						return fmt.Errorf("kissat: %w", err)
					}
					cell.KR = kr
					cell.KTime = r.cellDuration(time.Since(start), kr.Stats.Propagations)
					return nil
				}
				rep, err := sel.SolveContext(ctx, it.Inst.F, budget)
				if err != nil {
					return fmt.Errorf("neuroselect: %w", err)
				}
				if r.Deterministic {
					rep.SolveTime = r.cellDuration(rep.SolveTime, rep.Result.Stats.Propagations)
					rep.Choice.Inference = 0
				}
				cell.Rep = rep
				return nil
			})
			return cell, err
		})
	for idx, it := range items {
		kerr, nerr := errs[idx*2], errs[idx*2+1]
		if err := firstNonNil(kerr, nerr); err != nil {
			r.logf("fig7: instance %s failed, continuing: %v", it.Inst.Name, err)
			out.Failures = append(out.Failures, InstanceFailure{
				Name: it.Inst.Name, Stage: "solve", Err: err.Error()})
			continue
		}
		kr, kTime, rep := cells[idx*2].KR, cells[idx*2].KTime, cells[idx*2+1].Rep
		if rep.Choice.Policy.Name() == "frequency" {
			out.FreqChosen++
		}
		if fb := rep.Choice.Fallback; fb != "" && fb != portfolio.FallbackNoReduction {
			out.Fallbacks++
		}
		out.InferenceMS = append(out.InferenceMS, float64(rep.Choice.Inference.Microseconds())/1000)

		kSolvedI := kr.Status != solver.Unknown
		nSolvedI := rep.Result.Status != solver.Unknown
		if !kSolvedI && !nSolvedI {
			continue
		}
		p := ScatterPoint{
			Name: it.Inst.Name,
			X:    float64(kr.Stats.Propagations), Y: float64(rep.Result.Stats.Propagations),
			XTime: kTime, YTime: rep.SolveTime + rep.Choice.Inference,
			XSolved: kSolvedI, YSolved: nSolvedI,
		}
		out.Scatter.Points = append(out.Scatter.Points, p)
		if p.Y < p.X {
			out.ImprovementProps = append(out.ImprovementProps, p.X-p.Y)
		}
		kProps = append(kProps, p.X)
		nProps = append(nProps, p.Y)
		kMS = append(kMS, float64(p.XTime.Microseconds())/1000)
		nMS = append(nMS, float64(p.YTime.Microseconds())/1000)
		kSolved = append(kSolved, kSolvedI)
		nSolved = append(nSolved, nSolvedI)
		// Virtual best solver: the labeling pass measured both policies at
		// the same budget, so the per-instance minimum is the selector's
		// headroom.
		best := float64(it.PropsDefault)
		if f := float64(it.PropsFrequency); f < best {
			best = f
		}
		vbs = append(vbs, best)
	}
	out.Scatter.finish()
	out.Oracle = metrics.Summarize(vbs, kSolved)
	out.Table3 = Table3Result{
		Budget:          budget,
		Kissat:          metrics.Summarize(kProps, kSolved),
		NeuroSelect:     metrics.Summarize(nProps, nSolved),
		KissatTime:      metrics.Summarize(kMS, kSolved),
		NeuroSelectTime: metrics.Summarize(nMS, nSolved),
		Failures:        out.Failures,
	}
	out.Table3.Kissat.Failed = len(out.Failures)
	out.Table3.NeuroSelect.Failed = len(out.Failures)
	out.Table3.MedianImprovement = metrics.RelativeImprovement(
		out.Table3.Kissat.Median, out.Table3.NeuroSelect.Median)
	return out, nil
}

// Points returns the scatter points of the Figure 7(a) comparison.
func (f Fig7Result) Points() []ScatterPoint { return f.Scatter.Points }

// Table3 runs the Figure 7 comparison and returns its statistics table.
func (r *Runner) Table3() (Table3Result, error) {
	f, err := r.Fig7()
	if err != nil {
		return Table3Result{}, err
	}
	return f.Table3, nil
}

// Render prints the scatter and the Figure 7(b) box plots.
func (f Fig7Result) Render() string {
	var sb strings.Builder
	sb.WriteString(f.Scatter.Render())
	fmt.Fprintf(&sb, "  instances routed to the frequency policy: %d of %d\n",
		f.FreqChosen, len(f.Scatter.Points))
	if f.Fallbacks > 0 {
		fmt.Fprintf(&sb, "  selector fallbacks to the default policy: %d\n", f.Fallbacks)
	}
	for _, fail := range f.Failures {
		fmt.Fprintf(&sb, "  failed instance (excluded): %s\n", fail)
	}
	sb.WriteString("Figure 7(b) — box plots\n")
	qs := []float64{0, 0.25, 0.5, 0.75, 1}
	sb.WriteString(boxplot("inference time", metrics.Quantiles(f.InferenceMS, qs...), "ms"))
	sb.WriteString(boxplot("improvement", metrics.Quantiles(f.ImprovementProps, qs...), "propagations saved"))
	fmt.Fprintf(&sb, "  virtual best solver (oracle headroom): median %.0f, average %.0f propagations\n",
		f.Oracle.Median, f.Oracle.Average)
	return sb.String()
}
