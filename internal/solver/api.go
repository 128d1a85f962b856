package solver

import (
	"context"
	"fmt"

	"neuroselect/internal/cnf"
)

// Result bundles the outcome of a one-shot solve.
type Result struct {
	Status Status
	Model  cnf.Assignment // valid when Status == Sat
	Stats  Stats
	// Stop records why an Unknown search stopped: ErrConflictBudget,
	// ErrPropagationBudget, ErrDeadline, ErrCanceled, ErrInterrupted, or
	// a recovered panic wrapping ErrSolvePanic. Nil for decided results.
	Stop error
}

// Solve builds a solver for the formula with the given options, runs it to
// completion (or budget), and returns the result.
func Solve(f *cnf.Formula, opts Options) (Result, error) {
	return SolveContext(context.Background(), f, opts)
}

// SolveContext is Solve under a context. Cancellation and deadlines (the
// context's or Options.Deadline, whichever is earlier) abort the search
// with Unknown within a bounded number of propagations
// (Options.InterruptEvery), and Result.Stop identifies the cause. A panic
// during the search — e.g. an injected fault or an internal invariant
// failure — is recovered and converted into an error-carrying Unknown
// result instead of crashing the caller.
func SolveContext(ctx context.Context, f *cnf.Formula, opts Options) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			stop := fmt.Errorf("%w: %v", ErrSolvePanic, r)
			res = Result{Status: Unknown, Stop: stop}
			err = stop
		}
	}()
	if opts.Deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			opts.Deadline = d
		}
	}
	s, err := New(f, opts)
	if err != nil {
		return Result{}, err
	}
	st := s.SolveContext(ctx)
	res = Result{Status: st, Stats: s.Stats(), Stop: s.BudgetExhausted()}
	if st == Sat {
		res.Model = s.Model()
		if !res.Model.Satisfies(f) {
			return res, fmt.Errorf("solver: internal error: model does not satisfy formula")
		}
	}
	return res, nil
}

// SolveAssuming solves the formula under the given assumption literals by
// conjoining them as unit clauses. It is a one-shot convenience for
// incremental-style queries such as equivalence checking.
func SolveAssuming(f *cnf.Formula, assumptions []cnf.Lit, opts Options) (Result, error) {
	g := f.Clone()
	for _, a := range assumptions {
		if err := g.AddClause(a); err != nil {
			return Result{}, err
		}
	}
	return Solve(g, opts)
}
