package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

// runPortfolio is the -portfolio solve path: an N-worker shared-clause
// portfolio instead of a single solver. Deterministic mode prints no
// wall-clock quantity anywhere, so two runs of
//
//	satsolve -portfolio N -deterministic file.cnf
//
// produce byte-identical output for any N — the property the check.sh
// smoke diffs.
func runPortfolio(f *cnf.Formula, cfg portfolio.Config, timeout time.Duration, stats, model, statsJSON bool) int {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rep, err := portfolio.SolveParallelContext(ctx, f, cfg)
	if err != nil {
		return fail(err)
	}
	if stats {
		st := rep.Result.Stats
		fmt.Printf("c portfolio workers=%d deterministic=%v rounds=%d winner=%q\n",
			rep.Workers, rep.Deterministic, rep.Rounds, rep.Winner)
		for _, ex := range rep.Exchange {
			fmt.Printf("c worker %d config=%s exported=%d imported=%d filtered=%d dropped=%d\n",
				ex.Worker, ex.Config, ex.Exported, ex.Imported, ex.Filtered, ex.Dropped)
		}
		fmt.Printf("c decisions=%d propagations=%d conflicts=%d restarts=%d learned=%d imported=%d\n",
			st.Decisions, st.Propagations, st.Conflicts, st.Restarts, st.Learned, st.Imported)
	}
	code := printAnswer(f.NumVars, rep.Result, model)
	if statsJSON {
		if err := printPortfolioJSON(rep); err != nil {
			return fail(err)
		}
	}
	return code
}

// printPortfolioJSON emits the portfolio statistics as one JSON object on
// stdout: the single-solver -stats-json schema (status/policy/stop/stats)
// extended, append-only, with the "portfolio" block the solving service's
// ?portfolio= answers carry (portfolio.WireReport).
func printPortfolioJSON(rep portfolio.ParallelReport) error {
	doc := struct {
		Status    string                `json:"status"`
		Policy    string                `json:"policy,omitempty"`
		Stop      string                `json:"stop,omitempty"`
		Stats     solver.Stats          `json:"stats"`
		Portfolio *portfolio.WireReport `json:"portfolio"`
	}{Status: rep.Result.Status.String(), Policy: rep.Winner, Stats: rep.Result.Stats, Portfolio: rep.Wire()}
	if rep.Result.Stop != nil {
		doc.Stop = rep.Result.Stop.Error()
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
