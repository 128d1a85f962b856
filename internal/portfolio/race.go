package portfolio

import (
	"context"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/solver"
)

// RaceReport is the outcome of a parallel two-policy race.
type RaceReport struct {
	Result solver.Result
	// Winner names the policy whose solver decided first ("" when neither
	// decided).
	Winner string
	// WallTime is the race's wall-clock duration (pseudo-time for
	// RaceDeterministic).
	WallTime time.Duration
	// Failures lists workers whose solve failed (panicked or errored);
	// a race with at least one surviving worker still reports a result.
	Failures []string
}

// Race solves the formula under the default and the frequency-guided
// deletion policies in parallel and returns the first finisher, stopping
// the loser. This realizes the virtual-best-solver bound at the cost of 2×
// CPU — the hardware-hungry alternative to NeuroSelect's learned one-shot
// selection, included as a baseline extension.
func Race(f *cnf.Formula, maxConflicts int64) (RaceReport, error) {
	return RaceContext(context.Background(), f, maxConflicts)
}

// RaceContext is Race under a context: a free-running 2-worker portfolio
// with clause exchange and diversification disabled, so worker 0 runs the
// default policy and worker 1 the frequency policy on the
// experiment-standard options. It inherits the portfolio's guarantees:
// cancellation stops both workers within a bounded number of
// propagations, a crashing worker is recorded in RaceReport.Failures while
// the survivor's answer stands, only an all-failed race returns an error,
// and no goroutine outlives the call.
func RaceContext(ctx context.Context, f *cnf.Formula, maxConflicts int64) (RaceReport, error) {
	par, err := SolveParallelContext(ctx, f, Config{
		Workers:      2,
		NoExchange:   true,
		NoDiversify:  true,
		MaxConflicts: maxConflicts,
	})
	return raceReport(par, par.WallTime), err
}

// RaceDeterministic is the reproducible analogue of RaceContext: the same
// default-vs-frequency race, run as a 2-worker deterministic portfolio.
// osWorkers sets only the OS parallelism; the outcome — winner, result,
// stats — is a pure function of the formula and budget, byte-identical for
// any worker count. WallTime is pseudo-time: the winner's propagation
// count at 1 propagation ≡ 1µs, matching the experiment harness's
// deterministic clock.
func RaceDeterministic(ctx context.Context, f *cnf.Formula, maxConflicts int64, osWorkers int) (RaceReport, error) {
	par, err := SolveParallelContext(ctx, f, Config{
		Deterministic: true,
		Workers:       osWorkers,
		Ensemble:      2,
		NoExchange:    true,
		NoDiversify:   true,
		MaxConflicts:  maxConflicts,
	})
	return raceReport(par, par.PseudoTime), err
}

// raceReport maps a 2-worker portfolio report onto the race's vocabulary:
// worker 0 is the default policy, worker 1 the frequency policy.
func raceReport(par ParallelReport, wall time.Duration) RaceReport {
	rep := RaceReport{Result: par.Result, WallTime: wall, Failures: par.Failures}
	if par.WinnerIndex >= 0 {
		rep.Winner = [2]string{"default", "frequency"}[par.WinnerIndex]
	}
	return rep
}
