package solver

import (
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
)

// TestExportHookSeesEveryLearnedClause pins the export contract: the hook
// fires once per learned clause (units included), receives DIMACS literals
// whose negation-free form is implied by the formula, and the trajectory is
// identical to an export-free run (the hook is observation only).
func TestExportHookSeesEveryLearnedClause(t *testing.T) {
	inst := gen.Pigeonhole(6)
	base, err := Solve(inst.F, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var exported [][]cnf.Lit
	var glues []int
	opts := Options{Export: func(lits []cnf.Lit, glue int) {
		cp := make([]cnf.Lit, len(lits))
		copy(cp, lits) // the slice is scratch: the hook must copy
		exported = append(exported, cp)
		glues = append(glues, glue)
	}}
	res, err := Solve(inst.F, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != base.Stats {
		t.Fatalf("export hook changed the trajectory:\nwith   : %+v\nwithout: %+v", res.Stats, base.Stats)
	}
	if int64(len(exported)) != res.Stats.Learned {
		t.Fatalf("exported %d clauses, stats.Learned = %d", len(exported), res.Stats.Learned)
	}
	for i, c := range exported {
		if len(c) == 0 {
			t.Fatalf("exported clause %d is empty", i)
		}
		if glues[i] < 0 {
			t.Fatalf("exported clause %d has negative glue %d", i, glues[i])
		}
	}
}

// shareSolver builds a solver over numVars fresh variables and the given
// clauses, failing the test on construction errors.
func shareSolver(t *testing.T, numVars int, clauses ...cnf.Clause) *Solver {
	t.Helper()
	f := cnf.New(numVars)
	for _, c := range clauses {
		if err := f.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestImportClauseNormalization(t *testing.T) {
	t.Run("long clause installs as learned with carried glue", func(t *testing.T) {
		s := shareSolver(t, 4, cnf.Clause{1, 2, 3, 4})
		if !s.importClause(SharedClause{Lits: []cnf.Lit{-1, -2, -3}, Glue: 2}) {
			t.Fatal("import of a consistent clause must keep the solver live")
		}
		if s.stats.Imported != 1 || len(s.learned) != 1 {
			t.Fatalf("imported=%d learned=%d, want 1/1", s.stats.Imported, len(s.learned))
		}
		if g := s.clauseGlue(s.learned[0]); g != 2 {
			t.Fatalf("imported glue = %d, want 2", g)
		}
	})
	t.Run("tautology and duplicates", func(t *testing.T) {
		s := shareSolver(t, 3, cnf.Clause{1, 2})
		if !s.importClause(SharedClause{Lits: []cnf.Lit{1, -1, 2}, Glue: 1}) {
			t.Fatal("tautology import must be a no-op, not a failure")
		}
		if s.stats.Imported != 0 || len(s.learned) != 0 {
			t.Fatalf("tautology must not install: imported=%d learned=%d", s.stats.Imported, len(s.learned))
		}
		if !s.importClause(SharedClause{Lits: []cnf.Lit{2, 3, 2, 3}, Glue: 1}) {
			t.Fatal("duplicate-literal import failed")
		}
		if len(s.learned) != 1 || s.clauseSize(s.learned[0]) != 2 {
			t.Fatal("duplicates must collapse to one binary clause")
		}
	})
	t.Run("unit import propagates at level zero", func(t *testing.T) {
		s := shareSolver(t, 3, cnf.Clause{-1, 2}, cnf.Clause{-2, 3})
		if !s.importClause(SharedClause{Lits: []cnf.Lit{1}, Glue: 1}) {
			t.Fatal("unit import failed")
		}
		if s.value(fromCNF(3)) != lTrue {
			t.Fatal("unit import must propagate through the chain 1→2→3")
		}
		if s.stats.Imported != 1 {
			t.Fatalf("imported = %d, want 1", s.stats.Imported)
		}
	})
	t.Run("empty import decides UNSAT", func(t *testing.T) {
		s := shareSolver(t, 2, cnf.Clause{1, 2})
		if !s.importClause(SharedClause{Lits: []cnf.Lit{1}, Glue: 1}) {
			t.Fatal("first unit import failed")
		}
		if s.importClause(SharedClause{Lits: []cnf.Lit{-1}, Glue: 1}) {
			t.Fatal("conflicting unit import must report the UNSAT state")
		}
		if s.ok {
			t.Fatal("solver must be in the unsatisfiable state")
		}
		if s.Solve() != Unsat {
			t.Fatal("solve after a falsified import must return Unsat")
		}
	})
	t.Run("satisfied-at-top and dead literals", func(t *testing.T) {
		s := shareSolver(t, 3, cnf.Clause{1}) // level-0 unit: 1 is true
		if !s.importClause(SharedClause{Lits: []cnf.Lit{1, 2}, Glue: 1}) {
			t.Fatal("satisfied import failed")
		}
		if len(s.learned) != 0 {
			t.Fatal("clause satisfied at level zero must not install")
		}
		if !s.importClause(SharedClause{Lits: []cnf.Lit{-1, 2, 3}, Glue: 1}) {
			t.Fatal("import with a dead literal failed")
		}
		if len(s.learned) != 1 || s.clauseSize(s.learned[0]) != 2 {
			t.Fatal("false-at-top literal must be stripped, leaving a binary")
		}
	})
	t.Run("foreign variables are dropped", func(t *testing.T) {
		s := shareSolver(t, 2, cnf.Clause{1, 2})
		if !s.importClause(SharedClause{Lits: []cnf.Lit{1, 7}, Glue: 1}) {
			t.Fatal("foreign-variable import must be a no-op")
		}
		if len(s.learned) != 0 || s.stats.Imported != 0 {
			t.Fatal("clause mentioning an out-of-range variable must not install")
		}
	})
}

// TestImportHookRunsAtRestartBoundaries solves with an Import hook feeding
// clauses learned by a finished twin solver and checks they land in the
// database without changing the answer.
func TestImportHookRunsAtRestartBoundaries(t *testing.T) {
	inst := gen.Pigeonhole(7)
	var shared []SharedClause
	_, err := Solve(inst.F, Options{Export: func(lits []cnf.Lit, glue int) {
		if len(lits) <= 8 {
			cp := make([]cnf.Lit, len(lits))
			copy(cp, lits)
			shared = append(shared, SharedClause{Lits: cp, Glue: glue})
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) == 0 {
		t.Fatal("exporter produced no shareable clauses")
	}

	delivered := false
	opts := Options{Import: func() []SharedClause {
		if delivered {
			return nil
		}
		delivered = true
		return shared
	}}
	res, err := Solve(inst.F, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat {
		t.Fatalf("php-7 with imports = %v, want UNSAT", res.Status)
	}
	if res.Stats.Imported == 0 {
		t.Fatal("no clause was imported despite a non-empty batch")
	}
}

// TestImportDrainsUnderAssumptions checks that assumption solves drain
// the Import hook like plain solves do, at level zero ahead of the
// assumption prefix: an imported clause constrains the answer, an
// imported unit can falsify an assumption, and an imported refutation
// ends the solve Unsat for good.
func TestImportDrainsUnderAssumptions(t *testing.T) {
	f := cnf.New(3)
	f.MustAddClause(-1, 2, 3)
	f.MustAddClause(1, 2)
	batches := [][]SharedClause{
		{{Lits: []cnf.Lit{-1, -2}, Glue: 2}},
		{{Lits: []cnf.Lit{-1}, Glue: 1}},
		{{Lits: []cnf.Lit{-2}, Glue: 1}},
	}
	s, err := New(f, Options{Import: func() []SharedClause {
		if len(batches) == 0 {
			return nil
		}
		b := batches[0]
		batches = batches[1:]
		return b
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Without the import the first free decision, ¬3, would force 2.
	if st, _ := s.SolveUnderAssumptions([]cnf.Lit{1}); st != Sat || s.Model().Value(2) || !s.Model().Value(3) {
		t.Fatalf("after importing (¬1 ∨ ¬2) under assumption 1: %v, model %v; want SAT with ¬2, 3", st, s.Model())
	}
	if st, core := s.SolveUnderAssumptions([]cnf.Lit{1}); st != Unsat || len(core) != 1 || core[0] != 1 {
		t.Fatalf("after importing unit ¬1 under assumption 1: %v, core %v; want UNSAT, core [1]", st, core)
	}
	// ¬1 forced 2 at the root, so ¬2 arrives empty: it proves UNSAT and,
	// like every empty import, is not counted.
	if st, _ := s.SolveUnderAssumptions(nil); st != Unsat {
		t.Fatalf("after importing unit ¬2 beside ¬1: %v, want UNSAT", st)
	}
	if got := s.Stats().Imported; got != 2 {
		t.Errorf("Stats.Imported = %d, want 2", got)
	}
}

// TestOversizedClauseHandling pins how the callers of the shared
// level-zero install treat a clause over the arena's size limit:
// construction and AddClause refuse it with an error, a foreign import is
// dropped silently, and nothing reaches the arena either way.
func TestOversizedClauseHandling(t *testing.T) {
	n := maxClauseSize + 1
	big := make(cnf.Clause, n)
	for i := range big {
		big[i] = cnf.Lit(i + 1)
	}
	f := cnf.New(n)
	f.MustAddClause(big...)
	if _, err := New(f, Options{}); err == nil {
		t.Fatal("New accepted an oversized clause")
	}
	s, err := New(cnf.New(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(big); err == nil {
		t.Fatal("AddClause accepted an oversized clause")
	}
	if !s.importClause(SharedClause{Lits: big, Glue: 3}) {
		t.Fatal("an oversized import made the solver unsatisfiable")
	}
	// AddedClauses counts every clause that survives root simplification,
	// refused or not; Imported counts installed clauses only.
	if st := s.Stats(); st.AddedClauses != 1 || st.Imported != 0 {
		t.Errorf("AddedClauses = %d, Imported = %d; want 1 and 0", st.AddedClauses, st.Imported)
	}
	if c := s.LearnedClauseCount(); c != 0 {
		t.Errorf("%d clauses installed, want 0", c)
	}
}

// TestExtendBudgetResumes pins the resumability contract: a solve stopped
// on a conflict budget continues to the same answer as an unbounded fresh
// solve, and the restart cursor advances instead of rewinding.
func TestExtendBudgetResumes(t *testing.T) {
	inst := gen.Pigeonhole(7)
	fresh, err := Solve(inst.F, Options{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(inst.F, Options{MaxConflicts: 50})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	var prevRestarts int64
	for {
		st := s.Solve()
		if st != Unknown {
			if st != fresh.Status {
				t.Fatalf("resumed answer %v != fresh answer %v", st, fresh.Status)
			}
			break
		}
		if s.BudgetExhausted() == nil {
			t.Fatal("Unknown without a budget cause")
		}
		if s.stats.Restarts < prevRestarts {
			t.Fatal("restart cursor went backwards across a resume")
		}
		prevRestarts = s.stats.Restarts
		rounds++
		if rounds > 10000 {
			t.Fatal("resume loop did not converge")
		}
		s.ExtendBudget(s.Stats().Conflicts+50, 0)
	}
	if rounds == 0 {
		t.Fatal("budget of 50 conflicts should not decide php-7 in one round")
	}
}

// TestActivitySeedDiversifies checks that a non-zero seed changes the
// search trajectory (different decisions) without changing the answer, and
// that seed zero is bit-identical to the historical behaviour.
func TestActivitySeedDiversifies(t *testing.T) {
	inst := gen.RandomKSAT(60, 255, 3, 7)
	base, err := Solve(inst.F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Solve(inst.F, Options{ActivitySeed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Stats != base.Stats {
		t.Fatal("ActivitySeed 0 must be the identity")
	}
	seeded, err := Solve(inst.F, Options{ActivitySeed: 0x9E3779B97F4A7C15})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status != base.Status {
		t.Fatalf("seeded answer %v != base answer %v", seeded.Status, base.Status)
	}
	again, err := Solve(inst.F, Options{ActivitySeed: 0x9E3779B97F4A7C15})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats != seeded.Stats {
		t.Fatal("the same seed must reproduce the same trajectory")
	}
}
