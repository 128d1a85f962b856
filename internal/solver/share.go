package solver

// Clause sharing: the solver-side half of the parallel portfolio's clause
// exchange (internal/portfolio). The solver stays single-threaded — both
// hooks run on the solving goroutine. Export fires synchronously from the
// learn path for every learned clause; Import is drained only at restart
// boundaries, after the trail is back at decision level zero, so an
// imported clause can be installed with a plain attach (no asserting
// literal). Any cross-goroutine queueing, filtering, and
// synchronization is the hook implementor's problem.

import "neuroselect/internal/cnf"

// SharedClause is one learned clause in transit between solvers: DIMACS
// literals plus the glue (LBD) it was learned with, which the importer
// preserves so the receiving deletion policy ranks the foreigner exactly
// as the exporter did.
type SharedClause struct {
	Lits []cnf.Lit
	Glue int
}

// ExtendBudget raises (or lifts, with 0) the conflict and propagation
// budgets and clears the budget-exhausted latch, so a solver that returned
// Unknown on a budget can be resumed with another SolveContext call. The
// search picks up where it stopped: the clause database, activities, saved
// phases, and the Luby restart cursor all carry over. Budgets are absolute
// (compared against cumulative Stats counters), not increments.
func (s *Solver) ExtendBudget(maxConflicts, maxPropagations int64) {
	s.opts.MaxConflicts = maxConflicts
	s.opts.MaxPropagations = maxPropagations
	s.budget = nil
}

// importShared drains the Import hook and installs the batch. It must run
// at decision level zero. It reports false when an imported clause proved
// the formula unsatisfiable (s.ok is already false then).
func (s *Solver) importShared() bool {
	for _, sc := range s.opts.Import() {
		if !s.importClause(sc) {
			return false
		}
	}
	return true
}

// importClause installs one foreign learned clause at decision level zero
// through installRoot, as a learned clause under its carried glue (at
// least 1). A clause over a variable this solver does not have is not
// about our formula and is dropped, as is an oversized one; an empty
// import proves UNSAT. Stats.Imported counts installed units and clauses.
// Returns false once the solver is in the unsatisfiable state.
func (s *Solver) importClause(sc SharedClause) bool {
	buf := s.addBuf[:0]
	for _, l := range sc.Lits {
		if v := l.Var(); v < 1 || v > s.numVars {
			return s.ok // foreign variable: drop it
		}
		buf = append(buf, fromCNF(l))
	}
	if n, err := s.installRoot(buf, max(sc.Glue, 1)); n > 0 && err == nil {
		s.stats.Imported++
	}
	return s.ok
}

// exportLearnt hands a just-learned clause to the Export hook through the
// solver-owned scratch buffer (steady-state allocation-free once grown).
// The slice is valid only for the duration of the call.
func (s *Solver) exportLearnt(learnt []lit, glue int) {
	buf := s.exportBuf[:0]
	for _, l := range learnt {
		buf = append(buf, toCNF(l))
	}
	s.exportBuf = buf
	s.opts.Export(buf, glue)
}
