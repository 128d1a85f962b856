package solver

import (
	"context"
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
)

// incrementalOpts keeps the oracle runs bounded and exercises the
// reduction path even on small instances, matching the one-shot oracle
// suite's configuration.
func incrementalOpts() Options {
	return Options{MaxConflicts: 1 << 20, ReduceFirst: 10, ReduceInc: 5}
}

// coldStatus solves the accumulated formula from scratch — the reference
// every incremental answer must match.
func coldStatus(t *testing.T, f *cnf.Formula) Status {
	t.Helper()
	res := mustSolve(t, f, incrementalOpts())
	if res.Status == Unknown {
		t.Fatalf("cold reference solve exhausted its budget: %+v", res.Stats)
	}
	return res.Status
}

// checkIncrementalStep solves s under assumptions and demands agreement
// with a cold solve of the accumulated user-visible formula (plus the
// assumptions as unit clauses): same status, and on SAT a model that
// satisfies the accumulated formula and every assumption. On UNSAT with a
// core, the core must be refuting and a subset of the assumptions.
func checkIncrementalStep(t *testing.T, s *Solver, acc *cnf.Formula, assumptions []cnf.Lit, label string) {
	t.Helper()
	st, core := s.SolveUnderAssumptions(assumptions)
	ref := acc
	if len(assumptions) > 0 {
		ref = acc.Clone()
		for _, a := range assumptions {
			ref.MustAddClause(a)
		}
	}
	want := coldStatus(t, ref)
	if st != want {
		t.Fatalf("%s: incremental %v, cold solve of accumulated formula %v", label, st, want)
	}
	if st == Sat {
		m := s.Model()
		if !m.Satisfies(acc) {
			t.Fatalf("%s: incremental model does not satisfy the accumulated formula", label)
		}
		for _, a := range assumptions {
			if a.Var() <= len(m)-1 && !m.Value(a) {
				t.Fatalf("%s: model violates assumption %v", label, a)
			}
		}
		return
	}
	// Core checks: subset of the assumptions, and refuting on its own.
	valid := map[cnf.Lit]bool{}
	for _, a := range assumptions {
		valid[a] = true
	}
	for _, l := range core {
		if !valid[l] {
			t.Fatalf("%s: core literal %v not among assumptions %v", label, l, assumptions)
		}
	}
	if len(core) > 0 {
		coreRef := acc.Clone()
		for _, l := range core {
			coreRef.MustAddClause(l)
		}
		if coldStatus(t, coreRef) != Unsat {
			t.Fatalf("%s: reported core %v is not refuting", label, core)
		}
	} else if coldStatus(t, acc) != Unsat {
		t.Fatalf("%s: empty core but the accumulated formula alone is satisfiable", label)
	}
}

// TestIncrementalDifferentialOracle drives every generator family through
// an AddClause/Push/Pop/assume sequence and cross-checks each incremental
// answer against a cold solve of the accumulated formula (the ISSUE's
// differential oracle). The schedule per instance:
//
//  1. construct the solver on the first third of the clauses, solve;
//  2. AddClause the second third, solve, then solve again under an
//     assumption on variable 1 (both polarities);
//  3. Push a frame, add the final third under it, solve — answers must
//     reflect the full formula;
//  4. Pop the frame, solve — the final third must be retracted;
//  5. AddClause the final third permanently, solve — answers and the
//     generator expectation must hold for the full formula.
func TestIncrementalDifferentialOracle(t *testing.T) {
	for _, inst := range oracleInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			n := inst.F.NumVars
			cls := inst.F.Clauses
			third := len(cls) / 3
			base := cnf.New(n)
			for _, c := range cls[:third] {
				base.MustAddClause(c...)
			}
			s, err := New(base, incrementalOpts())
			if err != nil {
				t.Fatal(err)
			}
			acc := base.Clone()
			checkIncrementalStep(t, s, acc, nil, "base-third")

			for _, c := range cls[third : 2*third] {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
				acc.MustAddClause(c...)
			}
			checkIncrementalStep(t, s, acc, nil, "two-thirds")
			checkIncrementalStep(t, s, acc, []cnf.Lit{1}, "two-thirds+assume(1)")
			checkIncrementalStep(t, s, acc, []cnf.Lit{-1}, "two-thirds+assume(-1)")

			s.Push()
			framed := acc.Clone()
			for _, c := range cls[2*third:] {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
				framed.MustAddClause(c...)
			}
			checkIncrementalStep(t, s, framed, nil, "framed-full")
			checkIncrementalStep(t, s, framed, []cnf.Lit{2}, "framed-full+assume(2)")

			if !s.Pop() {
				t.Fatal("Pop with an open frame returned false")
			}
			checkIncrementalStep(t, s, acc, nil, "popped-back")

			for _, c := range cls[2*third:] {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
				acc.MustAddClause(c...)
			}
			checkIncrementalStep(t, s, acc, nil, "full")
			st, _ := s.SolveUnderAssumptions(nil)
			switch inst.Expected {
			case gen.ExpectSat:
				if st != Sat {
					t.Fatalf("full formula: %v, generator promises SAT", st)
				}
			case gen.ExpectUnsat:
				if st != Unsat {
					t.Fatalf("full formula: %v, generator promises UNSAT", st)
				}
			}
		})
	}
}

// TestIncrementalNewVariables grows the variable set through AddClause,
// both on the identity mapping (no Push yet) and after frames forced the
// explicit user↔internal maps, where user and activation variables
// interleave internally.
func TestIncrementalNewVariables(t *testing.T) {
	f := cnf.New(2)
	f.MustAddClause(1, 2)
	s, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Identity growth: variable 3 is new.
	if err := s.AddClause(cnf.Clause{-1, 3}); err != nil {
		t.Fatal(err)
	}
	if s.UserVars() != 3 {
		t.Fatalf("UserVars = %d, want 3", s.UserVars())
	}
	st, _ := s.SolveUnderAssumptions([]cnf.Lit{1})
	if st != Sat {
		t.Fatalf("assume 1: %v", st)
	}
	if !s.Model().Value(3) {
		t.Fatalf("model %v must set x3 (implied by x1)", s.Model())
	}

	// Mapped growth: Push allocates an activation variable internally,
	// then user variable 4 must still get a dense user number.
	s.Push()
	if err := s.AddClause(cnf.Clause{-3, 4}); err != nil {
		t.Fatal(err)
	}
	if s.UserVars() != 4 {
		t.Fatalf("UserVars = %d, want 4", s.UserVars())
	}
	st, _ = s.SolveUnderAssumptions([]cnf.Lit{1})
	if st != Sat {
		t.Fatalf("assume 1 under frame: %v", st)
	}
	m := s.Model()
	if !m.Value(4) {
		t.Fatalf("model %v must set x4 (implied chain under the frame)", m)
	}
	if len(m) != 5 { // index 0 unused + 4 user variables, no activation vars
		t.Fatalf("model has %d entries, want 5 (activation variables must stay hidden)", len(m))
	}

	// The frame clause dies with Pop: ¬3 no longer implies anything about 4.
	s.Pop()
	st, _ = s.SolveUnderAssumptions([]cnf.Lit{1, -4})
	if st != Sat {
		t.Fatalf("after Pop, {1, -4} must be satisfiable: %v", st)
	}
}

// TestIncrementalPushPopSemantics pins frame behavior: clauses under a
// frame constrain solves until the matching Pop, nested frames retract in
// LIFO order, and a frame-only contradiction yields UNSAT with an empty
// user core, turning back to SAT after Pop.
func TestIncrementalPushPopSemantics(t *testing.T) {
	f := cnf.New(2)
	f.MustAddClause(1, 2)
	s, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pop() {
		t.Fatal("Pop without a frame must report false")
	}

	s.Push()
	if err := s.AddClause(cnf.Clause{-1}); err != nil {
		t.Fatal(err)
	}
	s.Push()
	if err := s.AddClause(cnf.Clause{-2}); err != nil {
		t.Fatal(err)
	}
	if s.FrameDepth() != 2 {
		t.Fatalf("FrameDepth = %d, want 2", s.FrameDepth())
	}
	// (1∨2) ∧ ¬1 ∧ ¬2 is a frame-only contradiction: UNSAT, empty core.
	st, core := s.SolveUnderAssumptions(nil)
	if st != Unsat {
		t.Fatalf("both frames active: %v, want UNSAT", st)
	}
	if len(core) != 0 {
		t.Fatalf("frame-only UNSAT must have an empty user core, got %v", core)
	}

	s.Pop() // retract ¬2
	st, _ = s.SolveUnderAssumptions(nil)
	if st != Sat {
		t.Fatalf("after inner Pop: %v, want SAT", st)
	}
	if s.Model().Value(1) {
		t.Fatalf("model %v must clear x1 (outer frame's ¬1 still active)", s.Model())
	}

	s.Pop() // retract ¬1
	st, _ = s.SolveUnderAssumptions([]cnf.Lit{1})
	if st != Sat {
		t.Fatalf("after both Pops, assume 1: %v, want SAT", st)
	}
}

// refutesWithUnits reports whether f plus the given assumption literals
// (as unit clauses) is unsatisfiable, by exhaustive enumeration.
func refutesWithUnits(t *testing.T, f *cnf.Formula, subset []cnf.Lit) bool {
	t.Helper()
	g := f.Clone()
	for _, l := range subset {
		g.MustAddClause(l)
	}
	sat, _ := enumerate(g)
	return !sat
}

// verifyCoreMinimalSubset checks a returned core against brute force: the
// core must itself refute the formula, and it must contain at least one of
// the brute-force-minimal refuting subsets of the assumptions (so it is
// never missing a necessary assumption).
func verifyCoreMinimalSubset(t *testing.T, f *cnf.Formula, assumptions, core []cnf.Lit) {
	t.Helper()
	if !refutesWithUnits(t, f, core) {
		t.Fatalf("core %v does not refute the formula", core)
	}
	inCore := map[cnf.Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	// Enumerate subsets of the assumptions; find minimal refuting ones.
	n := len(assumptions)
	if n > 10 {
		t.Fatalf("assumption set too large for subset enumeration: %d", n)
	}
	refuting := map[uint]bool{}
	for mask := uint(0); mask < 1<<uint(n); mask++ {
		var subset []cnf.Lit
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				subset = append(subset, assumptions[i])
			}
		}
		refuting[mask] = refutesWithUnits(t, f, subset)
	}
	for mask := uint(0); mask < 1<<uint(n); mask++ {
		if !refuting[mask] {
			continue
		}
		minimal := true
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 && refuting[mask&^(1<<uint(i))] {
				minimal = false
				break
			}
		}
		if !minimal {
			continue
		}
		// mask is a minimal refuting subset: is it contained in the core?
		contained := true
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 && !inCore[assumptions[i]] {
				contained = false
				break
			}
		}
		if contained {
			return
		}
	}
	t.Fatalf("core %v contains no brute-force-minimal refuting subset of %v", core, assumptions)
}

// TestAssumptionEdgeCases pins the IPASIR corner cases: duplicate
// assumptions, a directly contradictory pair, assumptions over unknown
// variables, and UNSAT with an empty core — with every returned core
// minimal-subset-verified against brute force.
func TestAssumptionEdgeCases(t *testing.T) {
	t.Run("duplicates", func(t *testing.T) {
		// x1 → x2, x2 → x3; assuming {1, 1, -3, -3} fails exactly like
		// {1, -3} and the core must stay within the duplicated literals.
		f := cnf.New(3)
		f.MustAddClause(-1, 2)
		f.MustAddClause(-2, 3)
		s, err := New(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assumptions := []cnf.Lit{1, 1, -3, -3}
		st, core := s.SolveUnderAssumptions(assumptions)
		if st != Unsat {
			t.Fatalf("status %v, want UNSAT", st)
		}
		verifyCoreMinimalSubset(t, f, assumptions, core)
		// Duplicates must also be harmless on the SAT side.
		st, _ = s.SolveUnderAssumptions([]cnf.Lit{1, 1, 1})
		if st != Sat {
			t.Fatalf("duplicated satisfiable assumption: %v", st)
		}
	})

	t.Run("contradictory-pair", func(t *testing.T) {
		f := cnf.New(3)
		f.MustAddClause(1, 2)
		s, err := New(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assumptions := []cnf.Lit{3, -3}
		st, core := s.SolveUnderAssumptions(assumptions)
		if st != Unsat {
			t.Fatalf("status %v, want UNSAT", st)
		}
		verifyCoreMinimalSubset(t, f, assumptions, core)
		if len(core) != 2 {
			t.Fatalf("core %v, want exactly the pair {3, -3}", core)
		}
	})

	t.Run("unknown-variables", func(t *testing.T) {
		// Assumptions over variables the solver has never seen are
		// trivially free: they never block SAT and never enter a core.
		f := cnf.New(2)
		f.MustAddClause(-1, 2)
		s, err := New(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.SolveUnderAssumptions([]cnf.Lit{1, 7, -9})
		if st != Sat {
			t.Fatalf("unknown-variable assumptions must stay satisfiable: %v", st)
		}
		st, core := s.SolveUnderAssumptions([]cnf.Lit{7, 1, -2, -9})
		if st != Unsat {
			t.Fatalf("status %v, want UNSAT", st)
		}
		for _, l := range core {
			if l.Var() > 2 {
				t.Fatalf("core %v mentions an unknown variable", core)
			}
		}
		verifyCoreMinimalSubset(t, f, []cnf.Lit{7, 1, -2, -9}, core)
	})

	t.Run("empty-core-unsat", func(t *testing.T) {
		// A contradiction derived at the root — here through the
		// incremental AddClause path — fails every assumption set with an
		// empty core: no assumption is to blame.
		f := cnf.New(3)
		f.MustAddClause(1, 2)
		s, err := New(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []cnf.Clause{{3}, {-3, 1}, {-1}, {-2}} {
			if err := s.AddClause(c); err != nil {
				t.Fatal(err)
			}
		}
		st, core := s.SolveUnderAssumptions([]cnf.Lit{1, -2})
		if st != Unsat {
			t.Fatalf("root-contradicted formula under assumptions: %v", st)
		}
		if len(core) != 0 {
			t.Fatalf("core %v, want empty (the formula alone is UNSAT)", core)
		}
	})

	t.Run("unsat-formula-sound-core", func(t *testing.T) {
		// On a formula that is UNSAT independent of the assumptions but
		// needs search to prove it, the failed-assumption core may be
		// non-empty (the refutation found happened to lean on the
		// assumptions) — but it must still be refuting and a subset of
		// the assumptions.
		inst := gen.Pigeonhole(3)
		s, err := New(inst.F, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assumptions := []cnf.Lit{1, -5}
		st, core := s.SolveUnderAssumptions(assumptions)
		if st != Unsat {
			t.Fatalf("php-3 under assumptions: %v", st)
		}
		verifyCoreMinimalSubset(t, inst.F, assumptions, core)
	})
}

// TestAssumptionRestartKeepsPrefix measures satellite 1: restarts inside
// assumption solving used to cancel to level zero and re-propagate the
// entire assumption prefix every restart; cancelling to the prefix
// boundary must answer identically while saving those redundant
// propagations. The instance glues a 2000-variable implication chain (a
// propagation-heavy prefix, long enough that its per-restart cost
// dominates trajectory noise from heap tie-breaking) onto an
// unsatisfiable php-6 core that forces many restarts.
func TestAssumptionRestartKeepsPrefix(t *testing.T) {
	php := gen.Pigeonhole(6)
	base := php.F.NumVars
	f := php.F.Clone()
	const chain = 2000
	for i := 0; i < chain-1; i++ {
		f.MustAddClause(-cnf.Lit(base+1+i), cnf.Lit(base+2+i))
	}
	assumptions := []cnf.Lit{cnf.Lit(base + 1)}

	run := func(disable bool) (Status, Stats) {
		opts := Options{RestartBase: 32}
		opts.disableAssumptionPrefixKeep = disable
		s, err := New(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, core := s.SolveUnderAssumptions(assumptions)
		if len(core) != 0 {
			t.Fatalf("php core is assumption-free; got %v", core)
		}
		return st, s.Stats()
	}

	stKeep, keep := run(false)
	stRedo, redo := run(true)
	if stKeep != Unsat || stRedo != Unsat {
		t.Fatalf("php-6 with a chained prefix must be UNSAT (keep=%v redo=%v)", stKeep, stRedo)
	}
	if keep.Restarts == 0 {
		t.Fatalf("instance produced no restarts (stats %+v); the measurement is vacuous", keep)
	}
	if keep.Propagations >= redo.Propagations {
		t.Fatalf("prefix keeping saved nothing: %d propagations with keep, %d with re-propagation",
			keep.Propagations, redo.Propagations)
	}
	t.Logf("restarts=%d: %d propagations with prefix keeping vs %d re-propagating (%d saved, %.1f%%)",
		keep.Restarts, keep.Propagations, redo.Propagations,
		redo.Propagations-keep.Propagations,
		100*float64(redo.Propagations-keep.Propagations)/float64(redo.Propagations))
}

// TestIncrementalInvariants drives an AddClause/Push/Pop/solve schedule
// and then replays the watch and arena invariant checks, proving the
// incremental paths preserve the representation invariants the one-shot
// solver maintains.
func TestIncrementalInvariants(t *testing.T) {
	inst := gen.RandomKSAT(12, 50, 3, 11)
	cls := inst.F.Clauses
	half := len(cls) / 2
	base := cnf.New(inst.F.NumVars)
	for _, c := range cls[:half] {
		base.MustAddClause(c...)
	}
	s, err := New(base, Options{ReduceFirst: 10, ReduceInc: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.SolveUnderAssumptions(nil)
	s.Push()
	for _, c := range cls[half:] {
		if err := s.AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	s.SolveUnderAssumptions([]cnf.Lit{1})
	s.Pop()
	for _, c := range cls[half:] {
		if err := s.AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	s.SolveUnderAssumptions(nil)
	checkWatchInvariant(t, s)
	checkArenaInvariant(t, s)
	checkValueInvariant(t, s)
}

// TestSolveHonorsOpenFrames pins the one-shot Solve/SolveContext entry
// points to the same semantics as SolveUnderAssumptions when Push frames
// are open: clauses added under a frame constrain the answer. (The plain
// search loop used to ignore the frames' activation literals, so Solve
// could return Sat with a model violating frame clauses.)
func TestSolveHonorsOpenFrames(t *testing.T) {
	f := cnf.New(2)
	f.MustAddClause(-1, 2) // 1 → 2
	s, err := New(f, incrementalOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Push()
	for _, c := range []cnf.Clause{{1}, {-2}} {
		if err := s.AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("Solve with contradictory frame clauses = %v, want Unsat", st)
	}
	// Frame-only UNSAT must not poison the solver: popping restores SAT.
	if !s.Pop() {
		t.Fatal("Pop with an open frame returned false")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve after Pop = %v, want Sat", st)
	}
	// A satisfiable frame still constrains the model.
	s.Push()
	if err := s.AddClause(cnf.Clause{1}); err != nil {
		t.Fatal(err)
	}
	if st := s.SolveContext(context.Background()); st != Sat {
		t.Fatalf("SolveContext with satisfiable frame = %v, want Sat", st)
	}
	if m := s.Model(); !m.Value(1) || !m.Value(2) {
		t.Fatalf("model %v violates the frame clause {1} or the chain 1→2", m)
	}
}

// TestVarsAfterPredictsGrowth drives random session-like steps (pops,
// pushes, clause adds over old, new and far-off variables) and checks that
// VarsAfter, asked before each step, bounds the larger of the internal and
// the user-visible variable count the step then leaves, and names it
// exactly while the solver stays satisfiable.
func TestVarsAfterPredictsGrowth(t *testing.T) {
	rng := uint64(7)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	exact := 0
	for run := 0; run < 20; run++ {
		s, err := New(gen.RandomKSAT(8, 20, 3, int64(run)).F, incrementalOpts())
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			for pop := next(2); pop > 0 && s.FrameDepth() > 0; pop-- {
				s.Pop()
			}
			push := 0
			if run%3 != 0 { // every third run stays on the identity map
				push = next(3)
			}
			var add []cnf.Clause
			for k := next(3); k > 0; k-- {
				var c cnf.Clause
				for j := 1 + next(3); j > 0; j-- {
					v := 1 + next(s.UserVars()+4)
					if next(8) == 0 {
						v += 20 + next(30)
					}
					if next(2) == 0 {
						v = -v
					}
					c = append(c, cnf.Lit(v))
				}
				add = append(add, c)
			}
			want := s.VarsAfter(push, add)
			for i := 0; i < push; i++ {
				s.Push()
			}
			for _, c := range add {
				if err := s.AddClause(c); err != nil {
					t.Fatal(err)
				}
			}
			if got := max(s.NumVars(), s.UserVars()); got > want || (s.ok && got != want) {
				t.Fatalf("run %d step %d: VarsAfter(%d, %v) = %d, step left %d internal and %d user variables",
					run, step, push, add, want, s.NumVars(), s.UserVars())
			}
			if s.ok {
				exact++
			}
		}
	}
	if exact < 100 {
		t.Errorf("only %d of 240 steps left the solver satisfiable; the exact case is barely exercised", exact)
	}
}

// TestVarFootprintIsFootprintOfEmptySolver pins VarFootprint to what
// Footprint charges a solver over n variables and no clauses.
func TestVarFootprintIsFootprintOfEmptySolver(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		s, err := New(cnf.New(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := VarFootprint(n), s.Footprint(); got != want {
			t.Errorf("VarFootprint(%d) = %d, Footprint of an empty solver = %d", n, got, want)
		}
	}
}
