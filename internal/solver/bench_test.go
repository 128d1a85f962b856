package solver

import (
	"testing"

	"neuroselect/internal/aiger"
	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
)

// reportSolverMetrics converts accumulated search counters into per-op
// and throughput metrics. Every benchmark below is seeded, so props/op,
// conflicts/op and reductions/op are exact at a fixed -benchtime Nx: paired
// runs of two test binaries show whether the search held while ns/op
// moved. scripts/bench.sh also tracks props/sec and conflicts/sec per
// generator family alongside the standard ns/op and allocs/op columns.
func reportSolverMetrics(b *testing.B, props, conflicts, reductions int64) {
	n := float64(b.N)
	b.ReportMetric(float64(props)/n, "props/op")
	b.ReportMetric(float64(conflicts)/n, "conflicts/op")
	b.ReportMetric(float64(reductions)/n, "reductions/op")
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	// Zero rates are omitted rather than reported: Stats.Propagations
	// only counts reason-bearing enqueues, so a workload that collapses at
	// level 0 (e.g. the installRoot chain below) has none by definition.
	if props > 0 {
		b.ReportMetric(float64(props)/secs, "props/sec")
	}
	if conflicts > 0 {
		b.ReportMetric(float64(conflicts)/secs, "conflicts/sec")
	}
}

// BenchmarkSolveRandom3SAT measures end-to-end solving of a
// phase-transition random instance under each deletion policy.
func BenchmarkSolveRandom3SAT(b *testing.B) {
	inst := gen.RandomKSAT(120, 511, 3, 7)
	for _, pol := range []deletion.Policy{deletion.DefaultPolicy{}, deletion.FrequencyPolicy{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var props, conflicts, reductions int64
			for i := 0; i < b.N; i++ {
				res, err := Solve(inst.F, Options{Policy: pol, ReduceFirst: 100, ReduceInc: 50})
				if err != nil || res.Status == Unknown {
					b.Fatal("solve failed")
				}
				props += res.Stats.Propagations
				conflicts += res.Stats.Conflicts
				reductions += res.Stats.Reductions
			}
			reportSolverMetrics(b, props, conflicts, reductions)
		})
	}
}

// BenchmarkSolvePigeonhole measures a proof-heavy UNSAT instance.
func BenchmarkSolvePigeonhole(b *testing.B) {
	inst := gen.Pigeonhole(6)
	b.ReportAllocs()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(inst.F, Options{})
		if err != nil || res.Status != Unsat {
			b.Fatal("php-6 must be UNSAT")
		}
		props += res.Stats.Propagations
		conflicts += res.Stats.Conflicts
		reductions += res.Stats.Reductions
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}

// BenchmarkSolveMiter measures a structured equivalence-checking instance.
func BenchmarkSolveMiter(b *testing.B) {
	inst := gen.Miter(10, 150, false, 3)
	b.ReportAllocs()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(inst.F, Options{})
		if err != nil || res.Status != Unsat {
			b.Fatal("equivalent miter must be UNSAT")
		}
		props += res.Stats.Propagations
		conflicts += res.Stats.Conflicts
		reductions += res.Stats.Reductions
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}

// BenchmarkSolveTseitin measures an expander-graph parity instance, whose
// long XOR chains learn many binary clauses and so lean hardest on the
// inlined binary-watch path.
func BenchmarkSolveTseitin(b *testing.B) {
	inst := gen.Tseitin(24, 3, false, 4)
	b.ReportAllocs()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(inst.F, Options{})
		if err != nil || res.Status != Unsat {
			b.Fatal("odd-charge tseitin must be UNSAT")
		}
		props += res.Stats.Propagations
		conflicts += res.Stats.Conflicts
		reductions += res.Stats.Reductions
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}

// BenchmarkPropagationThroughput measures the root-level implication
// chain: the unit clause collapses the whole chain during installRoot's
// level-0 simplification, so this benchmark times clause ingestion and
// construction-time unit propagation (no watch lists, no search).
func BenchmarkPropagationThroughput(b *testing.B) {
	const n = 5000
	f := cnf.New(n)
	f.MustAddClause(1)
	for i := 1; i < n; i++ {
		f.MustAddClause(cnf.Lit(-i), cnf.Lit(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(f, Options{})
		if err != nil || res.Status != Sat {
			b.Fatal("chain must be SAT")
		}
		props += res.Stats.Propagations
		conflicts += res.Stats.Conflicts
		reductions += res.Stats.Reductions
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}

// BenchmarkBinaryBCP measures watch-driven propagation through the inlined
// binary-clause path. The two-way chain (¬x_i∨x_{i+1}) ∧ (x_i∨x_{i+1}) has
// no unit clause, so nothing collapses at construction; the first decision
// triggers ~n propagations, every one resolved inside the watcher without
// touching clause memory.
func BenchmarkBinaryBCP(b *testing.B) {
	const n = 5000
	f := cnf.New(n)
	for i := 1; i < n; i++ {
		f.MustAddClause(cnf.Lit(-i), cnf.Lit(i+1))
		f.MustAddClause(cnf.Lit(i), cnf.Lit(i+1))
	}
	s, err := New(f, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The incremental interface backtracks to level 0 between calls, so
		// each iteration redoes the full decision-triggered chain of
		// propagations on the already-constructed solver: pure BCP.
		if st, _ := s.SolveUnderAssumptions(nil); st != Sat {
			b.Fatal("two-way chain must be SAT")
		}
	}
	props := s.Stats().Propagations
	if props < int64(b.N)*(n-2) {
		b.Fatalf("chain did not propagate through BCP: %+v", s.Stats())
	}
	reportSolverMetrics(b, props, s.Stats().Conflicts, s.Stats().Reductions)
}

// BenchmarkReduceCost isolates the clause-database reduction by running a
// solve whose schedule forces frequent reductions, under both Figure 5
// scoring layouts.
func BenchmarkReduceCost(b *testing.B) {
	inst := gen.RandomKSAT(100, 426, 3, 9)
	for _, pol := range []deletion.Policy{deletion.DefaultPolicy{}, deletion.FrequencyPolicy{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var props, conflicts, reductions int64
			for i := 0; i < b.N; i++ {
				s, err := New(inst.F, Options{Policy: pol, ReduceFirst: 20, ReduceInc: 10})
				if err != nil {
					b.Fatal(err)
				}
				s.Solve()
				if s.Stats().Reductions == 0 {
					b.Fatal("schedule should force reductions")
				}
				props += s.Stats().Propagations
				conflicts += s.Stats().Conflicts
				reductions += s.Stats().Reductions
			}
			reportSolverMetrics(b, props, conflicts, reductions)
		})
	}
}

// unrollDepthQueries is the query schedule shared by the incremental and
// cold unrolling benchmarks: at each depth k of the add-1-or-2 counter,
// refute the just-out-of-reach value 2k+1 (UNSAT — the interesting proof)
// and witness the max-reachable value 2k (SAT).
func unrollDepthQueries(k int) (unsatTarget, satTarget uint64) {
	return uint64(2*k + 1), uint64(2 * k)
}

// BenchmarkIncrementalUnroll measures a BMC deepening sequence on one warm
// solver: each depth adds only the new frame's clauses via AddClause and
// solves under assumptions, so learned clauses, activities, and phases
// carry across depths. Compare against BenchmarkIncrementalUnrollCold,
// which pays a fresh construction and scratch search at every depth.
func BenchmarkIncrementalUnroll(b *testing.B) {
	const width, steps = 7, 20
	g := aiger.CounterAIG(width)
	b.ReportAllocs()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		u, err := aiger.NewUnroller(g, width)
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(cnf.New(0), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range u.Init(0) {
			if err := s.AddClause(c); err != nil {
				b.Fatal(err)
			}
		}
		for k := 1; k <= steps; k++ {
			clauses, _ := u.Step()
			for _, c := range clauses {
				if err := s.AddClause(c); err != nil {
					b.Fatal(err)
				}
			}
			unsatT, satT := unrollDepthQueries(k)
			if st, _ := s.SolveUnderAssumptions(u.StateEquals(unsatT)); st != Unsat {
				b.Fatalf("depth %d: %d must be unreachable", k, unsatT)
			}
			if st, _ := s.SolveUnderAssumptions(u.StateEquals(satT)); st != Sat {
				b.Fatalf("depth %d: %d must be reachable", k, satT)
			}
		}
		props += s.Stats().Propagations
		conflicts += s.Stats().Conflicts
		reductions += s.Stats().Reductions
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}

// BenchmarkIncrementalUnrollCold is the baseline the warm path is judged
// against: the same unrolling and query schedule, but every depth rebuilds
// a solver from the accumulated formula and searches from scratch.
func BenchmarkIncrementalUnrollCold(b *testing.B) {
	const width, steps = 7, 20
	g := aiger.CounterAIG(width)
	b.ReportAllocs()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		u, err := aiger.NewUnroller(g, width)
		if err != nil {
			b.Fatal(err)
		}
		acc := cnf.New(0)
		for _, c := range u.Init(0) {
			acc.MustAddClause(c...)
		}
		for k := 1; k <= steps; k++ {
			clauses, _ := u.Step()
			for _, c := range clauses {
				acc.MustAddClause(c...)
			}
			acc.NumVars = u.NumVars()
			unsatT, satT := unrollDepthQueries(k)
			res, err := SolveAssuming(acc, u.StateEquals(unsatT), Options{})
			if err != nil || res.Status != Unsat {
				b.Fatalf("depth %d: %d must be unreachable (%v)", k, unsatT, err)
			}
			res, err = SolveAssuming(acc, u.StateEquals(satT), Options{})
			if err != nil || res.Status != Sat {
				b.Fatalf("depth %d: %d must be reachable (%v)", k, satT, err)
			}
			props += res.Stats.Propagations
			conflicts += res.Stats.Conflicts
			reductions += res.Stats.Reductions
		}
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}

// BenchmarkSessionSteps ages a solver through the long session script
// (session_golden_test.go): per op, a fresh solver over the seeded base
// runs all longSessionSteps of nsbench's session step (Pop, Push, 3
// random clauses, a solve under 8 random assumptions). No benchmark above
// grows a solver through hundreds of frames, and a warm served session
// spends its time there.
func BenchmarkSessionSteps(b *testing.B) {
	b.ReportAllocs()
	var props, conflicts, reductions int64
	for i := 0; i < b.N; i++ {
		ls := newLongSession(b)
		for k := 0; k < longSessionSteps; k++ {
			ls.step(b, k)
		}
		st := ls.s.Stats()
		props += st.Propagations
		conflicts += st.Conflicts
		reductions += st.Reductions
	}
	reportSolverMetrics(b, props, conflicts, reductions)
}
