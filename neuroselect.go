// Package neuroselect is the public facade of the NeuroSelect
// reproduction: a CDCL SAT solver with pluggable clause-deletion policies,
// the paper's propagation-frequency deletion criterion, and a graph-
// transformer selector that picks the best policy per instance.
//
// Quick start:
//
//	f, _ := neuroselect.ParseDIMACS(strings.NewReader("p cnf 2 2\n1 2 0\n-1 0\n"))
//	res, _ := neuroselect.Solve(f, neuroselect.SolveConfig{})
//	fmt.Println(res.Status) // SAT
//
// Training and adaptive solving:
//
//	model, _ := neuroselect.TrainSelector(neuroselect.TrainerConfig{})
//	res, _ := neuroselect.SolveAdaptive(f, model, neuroselect.SolveConfig{})
//
// # Where to go next
//
// This package re-exports the small surface most callers need; the
// machinery lives in focused internal packages:
//
//   - internal/solver is the CDCL engine (arena-backed clause storage,
//     deadline-aware SolveContext, panic containment). Solve, SolveContext
//     and SolveAssuming here wrap it.
//   - internal/portfolio is the paper's NeuroSelect-Kissat flow: one model
//     inference, made at the search's first reduction, selects the
//     deletion policy, with degrade-to-default fallbacks. SolveAdaptive
//     wraps it.
//   - internal/server turns the solver into an HTTP service — admission
//     control, a canonical-hash result cache, async jobs, graceful drain —
//     run via cmd/neuroselect-serve. The wire contract is API.md.
//   - internal/obs is the observability layer behind SolveConfig.Tracer
//     and every -metrics-addr flag: the JSONL trace schema and the
//     Prometheus registry, both documented in API.md.
//   - internal/experiments regenerates the paper's tables and figures
//     (cmd/experiments); internal/dataset, internal/core, internal/nn and
//     internal/baselines are its training substrate.
//
// DESIGN.md holds the architecture inventory; README.md the command-line
// tools and flags.
package neuroselect

import (
	"context"
	"io"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/drat"
	"neuroselect/internal/experiments"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

// Re-exported basic types.
type (
	// Formula is a CNF formula (see internal/cnf).
	Formula = cnf.Formula
	// Lit is a DIMACS-style literal.
	Lit = cnf.Lit
	// Clause is a disjunction of literals.
	Clause = cnf.Clause
	// Assignment maps variables to truth values.
	Assignment = cnf.Assignment
	// Status is a solve outcome (SAT / UNSAT / UNKNOWN).
	Status = solver.Status
	// Result bundles a solve outcome with its statistics.
	Result = solver.Result
	// Model is a trained NeuroSelect policy-selection model.
	Model = core.Model
	// Tracer receives structured search events from the solver's cold
	// paths (restarts, reductions, conflict-window rollups); see
	// SolveConfig.Tracer. internal/obs ships JSONL and metrics-registry
	// implementations.
	Tracer = obs.Tracer
	// TraceEvent is one structured search event; its JSON tags define the
	// JSONL trace schema.
	TraceEvent = obs.Event
)

// Solve outcomes.
const (
	Unknown = solver.Unknown
	Sat     = solver.Sat
	Unsat   = solver.Unsat
)

// Stop causes for Unknown results (Result.Stop); all wrap ErrBudget.
var (
	// ErrBudget is the umbrella cause: some resource budget expired.
	ErrBudget = solver.ErrBudget
	// ErrDeadline: the wall-clock deadline (SolveConfig.Timeout or the
	// context deadline) passed.
	ErrDeadline = solver.ErrDeadline
	// ErrCanceled: the SolveContext context was canceled.
	ErrCanceled = solver.ErrCanceled
	// ErrConflictBudget: SolveConfig.MaxConflicts expired.
	ErrConflictBudget = solver.ErrConflictBudget
	// ErrSolvePanic: a panic during the search was contained and reported
	// as an error-carrying Unknown result.
	ErrSolvePanic = solver.ErrSolvePanic
)

// NewFormula returns an empty formula over n variables.
func NewFormula(n int) *Formula { return cnf.New(n) }

// ParseDIMACS reads a DIMACS CNF.
func ParseDIMACS(r io.Reader) (*Formula, error) { return cnf.ParseDIMACS(r) }

// WriteDIMACS writes a formula in DIMACS format.
func WriteDIMACS(w io.Writer, f *Formula) error { return cnf.WriteDIMACS(w, f) }

// SolveConfig configures a solve call.
type SolveConfig struct {
	// Policy names the clause-deletion policy: "default" (Kissat's
	// glue/size ranking), "frequency" (the paper's new policy),
	// "activity", or "size". Empty means "default".
	Policy string
	// MaxConflicts bounds the search (0 = unlimited).
	MaxConflicts int64
	// Proof, when non-nil, receives a DRAT proof stream certifying UNSAT
	// answers (written via drat.NewWriter).
	Proof *drat.Writer
	// Timeout bounds wall-clock solve time; expiry returns Unknown with
	// Result.Stop = ErrDeadline (0 = unbounded). The analogue of the
	// paper's 5,000-second cutoff.
	Timeout time.Duration
	// Tracer, when non-nil, streams structured search events (solve
	// start/end, restarts, reductions, per-conflict-window rollups) to
	// the given sink. Nil is zero-cost: the search runs bit-identically.
	Tracer Tracer
}

// Solve decides the formula under a fixed deletion policy.
func Solve(f *Formula, cfg SolveConfig) (Result, error) {
	return SolveContext(context.Background(), f, cfg)
}

// SolveContext is Solve under a context: cancellation and deadlines (the
// context's, or now+cfg.Timeout, whichever is earlier) abort the search
// with Unknown within a bounded number of propagations, and Result.Stop
// identifies the cause (ErrDeadline, ErrCanceled, ErrConflictBudget, ...).
func SolveContext(ctx context.Context, f *Formula, cfg SolveConfig) (Result, error) {
	name := cfg.Policy
	if name == "" {
		name = "default"
	}
	pol, err := deletion.ByName(name)
	if err != nil {
		return Result{}, err
	}
	return solveWith(ctx, f, pol, cfg)
}

// solveWith is SolveContext under a resolved deletion policy; cfg.Policy
// is ignored.
func solveWith(ctx context.Context, f *Formula, pol deletion.Policy, cfg SolveConfig) (Result, error) {
	opts := dataset.SolveOptions(pol, cfg.MaxConflicts)
	opts.Tracer = cfg.Tracer
	if cfg.Timeout > 0 {
		opts.Deadline = time.Now().Add(cfg.Timeout)
	}
	if cfg.Proof != nil { // a nil *drat.Writer must stay a nil ProofLogger
		opts.Proof = cfg.Proof
	}
	return solver.SolveContext(ctx, f, opts)
}

// CheckProof validates a DRAT proof (as produced via SolveConfig.Proof)
// against the original formula.
func CheckProof(f *Formula, proof io.Reader) error {
	steps, err := drat.Parse(proof)
	if err != nil {
		return err
	}
	return drat.Check(f, steps)
}

// NewProofWriter wraps w as a DRAT proof sink for SolveConfig.Proof. Call
// Flush after solving.
func NewProofWriter(w io.Writer) *drat.Writer { return drat.NewWriter(w) }

// SolveAssuming decides the formula under assumption literals.
func SolveAssuming(f *Formula, assumptions []Lit, cfg SolveConfig) (Result, error) {
	name := cfg.Policy
	if name == "" {
		name = "default"
	}
	pol, err := deletion.ByName(name)
	if err != nil {
		return Result{}, err
	}
	return solver.SolveAssuming(f, assumptions, dataset.SolveOptions(pol, cfg.MaxConflicts))
}

// SolveAdaptive runs the NeuroSelect-Kissat flow: a one-time model
// inference picks the deletion policy at the model's threshold, and the
// formula is solved exactly as Solve would under that policy, so Timeout,
// Tracer and Proof apply as they do there. The model's choice
// overrides cfg.Policy. The choice waits for the search's first reduction,
// the only place a policy acts, so a solve that ends before one runs no
// inference (see portfolio.Deferred). With a Tracer set, solve_start names
// the policy "auto" and the choice is traced as one policy event at the
// moment it is made.
func SolveAdaptive(f *Formula, m *Model, cfg SolveConfig) (Result, error) {
	d := portfolio.NewSelector(m).Defer(f, nil, cfg.Tracer)
	defer d.Result() // settles a choice the search never needed
	return solveWith(context.Background(), f, d, cfg)
}

// TrainerConfig sizes selector training. The zero value uses the quick
// preset (seconds); Paper-shaped runs should raise the sizes via Scale.
type TrainerConfig struct {
	// Scale selects an experiment preset: "quick" (default) or "default".
	Scale string
	// Log receives progress lines when non-nil.
	Log io.Writer
}

// TrainSelector builds a labeled corpus, trains a NeuroSelect model on it,
// calibrates the model's decision threshold on the same corpus, and
// returns the model.
func TrainSelector(cfg TrainerConfig) (*Model, error) {
	scale := experiments.QuickScale()
	if cfg.Scale == "default" {
		scale = experiments.DefaultScale()
	}
	r := experiments.NewRunner(scale)
	r.Log = cfg.Log
	return r.TrainedModel()
}

// SaveModel writes a self-describing model file (architecture, decision
// threshold and weights).
func SaveModel(w io.Writer, m *Model) error { return m.SaveFile(w) }

// LoadModel restores a model written by SaveModel. A file that stores no
// threshold decides at 0.5.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModelFile(r) }

// PredictPolicy makes the model's one-time policy choice for the formula,
// the one SolveAdaptive makes once its search reaches a reduction. It
// returns the model's probability that the frequency-guided deletion
// policy beats the default, and the policy name chosen at the model's
// threshold. When inference was skipped (the formula is over the node
// cap, or inference failed) the probability is -1 and the policy is
// "default".
func PredictPolicy(f *Formula, m *Model) (prob float64, policy string) {
	ch := portfolio.NewSelector(m).Choose(f)
	return ch.Prob, ch.Policy.Name()
}
