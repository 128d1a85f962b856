package solver

import (
	"math/rand"
	"slices"
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
)

// The goldens in golden_test.go pin one-shot solves. The tables below pin
// the entry points those solves never reach: assumption solves, solves
// with a Push frame open, AddClause under and outside a frame, a plain
// Solve resumed after assumption solves, and an ExtendBudget resume loop.
// The schedule (restart base 16, first reduction at 50 conflicts) makes
// restarts and reductions fire within every script. Like the one-shot
// goldens, a change that shifts these numbers changes the search and must
// update the tables deliberately.

// sessionGoldenOptions is the option set the session goldens were
// recorded under.
func sessionGoldenOptions() Options {
	return Options{RestartBase: 16, ReduceFirst: 50, ReduceInc: 25}
}

// sessionStep is the observable outcome of one solve call: status, the
// full cumulative stats, and the failed-assumption core (nil for calls
// that return none).
type sessionStep struct {
	status Status
	stats  Stats
	core   []cnf.Lit
}

// runSessionScript drives one instance through the fixed call script:
//
//  1. SolveUnderAssumptions(nil) on the first half of the clauses;
//  2. Push, the second half under the frame, SolveUnderAssumptions(as);
//  3. Solve() with the frame still open;
//  4. Pop, the second half added permanently, SolveUnderAssumptions(as);
//  5. Solve() twice.
func runSessionScript(t *testing.T, in gen.Instance, as []cnf.Lit) []sessionStep {
	t.Helper()
	cls := in.F.Clauses
	half := len(cls) / 2
	base := cnf.New(in.F.NumVars)
	for _, c := range cls[:half] {
		base.MustAddClause(c...)
	}
	s, err := New(base, sessionGoldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	var steps []sessionStep
	record := func(st Status, core []cnf.Lit) {
		var kept []cnf.Lit
		if len(core) > 0 {
			kept = append(kept, core...)
		}
		steps = append(steps, sessionStep{st, s.Stats(), kept})
	}
	addRest := func() {
		for _, c := range cls[half:] {
			if err := s.AddClause(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	record(s.SolveUnderAssumptions(nil))
	s.Push()
	addRest()
	record(s.SolveUnderAssumptions(as))
	record(s.Solve(), nil)
	if !s.Pop() {
		t.Fatal("Pop found no open frame")
	}
	addRest()
	record(s.SolveUnderAssumptions(as))
	record(s.Solve(), nil)
	record(s.Solve(), nil)
	return steps
}

// runResumeScript solves php-7 in 50-conflict ExtendBudget rounds and
// returns the outcome of every round.
func runResumeScript(t *testing.T) []sessionStep {
	t.Helper()
	opts := sessionGoldenOptions()
	opts.MaxConflicts = 50
	s, err := New(gen.Pigeonhole(7).F, opts)
	if err != nil {
		t.Fatal(err)
	}
	var steps []sessionStep
	for len(steps) < 1000 {
		st := s.Solve()
		steps = append(steps, sessionStep{st, s.Stats(), nil})
		if st != Unknown {
			return steps
		}
		s.ExtendBudget(s.Stats().Conflicts+50, 0)
	}
	t.Fatal("resume loop did not converge")
	return nil
}

// statsWords flattens every Stats counter, in declaration order, for
// hashing with propFreqHash.
func statsWords(st Stats) []uint64 {
	return []uint64{uint64(st.Decisions), uint64(st.Propagations), uint64(st.Conflicts),
		uint64(st.Restarts), uint64(st.Reductions), uint64(st.Learned), uint64(st.Deleted),
		uint64(st.UnitsLearned), uint64(st.BinariesLearned), uint64(st.Imported),
		uint64(st.AddedClauses), uint64(st.MinimizedLits), uint64(st.MaxTrail),
		uint64(st.GCCompactions), uint64(st.GCLitsReclaimed), uint64(st.GCBytesMoved)}
}

// Stats literals below are positional, in field order: Decisions,
// Propagations, Conflicts, Restarts, Reductions, Learned, Deleted,
// UnitsLearned, BinariesLearned, Imported, AddedClauses, MinimizedLits,
// MaxTrail, GCCompactions, GCLitsReclaimed, GCBytesMoved.
var sessionGoldens = map[string][]sessionStep{
	"rand3sat-n100-m426-s11": {
		{Sat, Stats{78, 80, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 100, 0, 0, 0}, nil},
		{Unsat, Stats{449, 8647, 274, 10, 3, 273, 139, 0, 0, 0, 213, 378, 100, 3, 1515, 6444}, []cnf.Lit{1, -2, 3}},
		{Unsat, Stats{1235, 27830, 885, 29, 7, 883, 643, 0, 3, 0, 213, 1676, 100, 7, 5804, 26932}, nil},
		{Unsat, Stats{1458, 33690, 1061, 35, 7, 1058, 643, 0, 3, 0, 426, 1934, 100, 7, 5804, 26932}, []cnf.Lit{-2, 1, 3}},
		{Unsat, Stats{2051, 49345, 1535, 48, 9, 1531, 1000, 6, 26, 0, 426, 2875, 100, 9, 8437, 51528}, nil},
		{Unsat, Stats{2051, 49345, 1535, 48, 9, 1531, 1000, 6, 26, 0, 426, 2875, 100, 9, 8437, 51528}, nil},
	},
	"rand3sat-n150-m600-s5": {
		{Sat, Stats{59, 91, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 150, 0, 0, 0}, nil},
		{Sat, Stats{819, 21505, 506, 14, 5, 506, 352, 0, 0, 0, 300, 1004, 151, 5, 4343, 17316}, nil},
		{Sat, Stats{852, 21623, 506, 14, 5, 506, 352, 0, 0, 0, 300, 1004, 151, 5, 4343, 17316}, nil},
		{Sat, Stats{885, 21740, 506, 14, 5, 506, 352, 0, 0, 0, 600, 1004, 151, 5, 4343, 17316}, nil},
		{Sat, Stats{918, 21857, 506, 14, 5, 506, 352, 0, 0, 0, 600, 1004, 151, 5, 4343, 17316}, nil},
		{Sat, Stats{918, 21857, 506, 14, 5, 506, 352, 0, 0, 0, 600, 1004, 151, 5, 4343, 17316}, nil},
	},
	"php-7": {
		{Sat, Stats{29, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 56, 0, 0, 0}, nil},
		{Unsat, Stats{327, 4111, 223, 8, 2, 222, 73, 0, 0, 0, 102, 180, 57, 2, 1437, 3216}, []cnf.Lit{3, 1}},
		{Unsat, Stats{19080, 231854, 13234, 260, 31, 13232, 12318, 0, 5, 0, 102, 41464, 57, 31, 224666, 366040}, nil},
		{Unsat, Stats{19270, 234335, 13376, 266, 31, 13373, 12318, 0, 5, 0, 204, 41774, 57, 31, 224666, 366040}, []cnf.Lit{3, 1}},
		{Unsat, Stats{28807, 352060, 20115, 381, 38, 20111, 18330, 3, 17, 0, 204, 62469, 57, 38, 324760, 474452}, nil},
		{Unsat, Stats{28807, 352060, 20115, 381, 38, 20111, 18330, 3, 17, 0, 204, 62469, 57, 38, 324760, 474452}, nil},
	},
	"tseitin-unsat-v16-d3-s4": {
		{Sat, Stats{16, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0}, nil},
		{Unsat, Stats{73, 477, 48, 2, 0, 47, 0, 0, 0, 0, 32, 40, 25, 0, 0, 0}, []cnf.Lit{-2, 1, 3}},
		{Unsat, Stats{213, 1779, 162, 7, 2, 160, 66, 0, 5, 0, 32, 351, 25, 2, 459, 2320}, nil},
		{Unsat, Stats{259, 2126, 196, 9, 2, 193, 66, 0, 5, 0, 64, 363, 25, 2, 459, 2320}, []cnf.Lit{-2, 1, 3}},
		{Unsat, Stats{314, 2386, 234, 10, 3, 230, 115, 4, 15, 0, 64, 375, 25, 3, 731, 5360}, nil},
		{Unsat, Stats{314, 2386, 234, 10, 3, 230, 115, 4, 15, 0, 64, 375, 25, 3, 731, 5360}, nil},
	},
	"color-v20-e50-k3-s9": {
		{Sat, Stats{29, 31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0}, nil},
		{Unsat, Stats{31, 36, 0, 0, 0, 0, 0, 0, 0, 0, 115, 0, 60, 0, 0, 0}, []cnf.Lit{3, 1}},
		{Unsat, Stats{50, 467, 16, 0, 0, 15, 0, 0, 3, 0, 115, 10, 60, 0, 0, 0}, nil},
		{Unsat, Stats{51, 472, 16, 0, 0, 15, 0, 0, 3, 0, 230, 10, 60, 0, 0, 0}, []cnf.Lit{3, 1}},
		{Unsat, Stats{56, 628, 22, 0, 0, 20, 0, 2, 5, 0, 230, 10, 60, 0, 0, 0}, nil},
		{Unsat, Stats{56, 628, 22, 0, 0, 20, 0, 2, 5, 0, 230, 10, 60, 0, 0, 0}, nil},
	},
	"queens-8": {
		{Sat, Stats{40, 31, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0}, nil},
		{Unsat, Stats{42, 52, 1, 0, 0, 1, 0, 0, 0, 0, 368, 0, 64, 0, 0, 0}, []cnf.Lit{3, 1}},
		{Sat, Stats{65, 177, 6, 0, 0, 6, 0, 0, 0, 0, 368, 1, 65, 0, 0, 0}, nil},
		{Unsat, Stats{66, 198, 6, 0, 0, 6, 0, 0, 0, 0, 736, 1, 65, 0, 0, 0}, []cnf.Lit{3, 1}},
		{Sat, Stats{76, 252, 6, 0, 0, 6, 0, 0, 0, 0, 736, 1, 65, 0, 0, 0}, nil},
		{Sat, Stats{76, 252, 6, 0, 0, 6, 0, 0, 0, 0, 736, 1, 65, 0, 0, 0}, nil},
	},
}

// TestSessionTrajectoryGolden replays the call script on six golden
// instances (assumptions {1, -2, 3}) and demands the recorded status,
// stats, and core after every call. The color-v20 and queens-8 cores are
// found without spending a conflict, so they come from an assumption
// already falsified by the ones before it.
func TestSessionTrajectoryGolden(t *testing.T) {
	for _, in := range goldenInstances() {
		want, ok := sessionGoldens[in.Name]
		if !ok {
			continue
		}
		in := in
		t.Run(in.Name, func(t *testing.T) {
			got := runSessionScript(t, in, []cnf.Lit{1, -2, 3})
			if len(got) != len(want) {
				t.Fatalf("%d steps, golden %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.status != w.status || g.stats != w.stats || !slices.Equal(g.core, w.core) {
					t.Errorf("call %d:\n got %v %+v core %v\nwant %v %+v core %v",
						i+1, g.status, g.stats, g.core, w.status, w.stats, w.core)
				}
			}
		})
	}
}

// TestResumeTrajectoryGolden pins php-7 solved in 50-conflict ExtendBudget
// rounds: the round count, the final stats, and a hash over the stats of
// every round, so a resume that drifts mid-way fails even if it converges
// to the same end state.
func TestResumeTrajectoryGolden(t *testing.T) {
	steps := runResumeScript(t)
	var words []uint64
	for _, st := range steps {
		words = append(words, statsWords(st.stats)...)
	}
	last := steps[len(steps)-1]
	const wantRounds = 695
	wantStats := Stats{50593, 621969, 34730, 6, 51, 34729, 32749, 2, 12, 0, 0, 121146, 56, 51, 601016, 598532}
	const wantHash = uint64(0x3cdd58401892d961)
	if len(steps) != wantRounds || last.status != Unsat || last.stats != wantStats {
		t.Errorf("%d rounds ending %v %+v; golden %d rounds ending UNSAT %+v",
			len(steps), last.status, last.stats, wantRounds, wantStats)
	}
	if h := propFreqHash(words); h != wantHash {
		t.Errorf("per-round stats hash %#x, golden %#x", h, wantHash)
	}
}

// The long session runs the service benchmark's session step (nsbench's
// session-steps workload) on one solver for longSessionSteps frames: pop
// the previous frame, push a new one holding 3 random 3-literal clauses,
// and solve under 8 random assumptions. The base is a seeded random 3-SAT
// formula over longSessionVars variables at clause ratio 3.8, solved under
// the options the server gives a session (dataset.SolveOptions: first
// reduction at 100 conflicts, interval growth 50). Every Push adds an
// activation variable, so the script grows the solver from 150 to 450
// variables one frame at a time, as a warm served session does.
const (
	longSessionVars  = 150
	longSessionSteps = 300
)

// longSession is the script's state: the solver, its random stream, and
// the clause and assumption scratch every step redraws.
type longSession struct {
	s      *Solver
	rng    *rand.Rand
	clause cnf.Clause
	assume []cnf.Lit
}

func newLongSession(tb testing.TB) *longSession {
	tb.Helper()
	base := gen.RandomKSAT(longSessionVars, longSessionVars*38/10, 3, 3)
	s, err := New(base.F, Options{ReduceFirst: 100, ReduceInc: 50})
	if err != nil {
		tb.Fatal(err)
	}
	return &longSession{s: s, rng: rand.New(rand.NewSource(4))}
}

// draw refills buf with k literals over distinct variables, each with a
// random polarity.
func (ls *longSession) draw(buf []cnf.Lit, k int) []cnf.Lit {
	buf = buf[:0]
	for len(buf) < k {
		l := cnf.Lit(1 + ls.rng.Intn(longSessionVars))
		if slices.Contains(buf, l) || slices.Contains(buf, -l) {
			continue
		}
		if ls.rng.Intn(2) == 0 {
			l = -l
		}
		buf = append(buf, l)
	}
	return buf
}

// step runs step k of the script and returns the solve's answer.
func (ls *longSession) step(tb testing.TB, k int) (Status, []cnf.Lit) {
	if k > 0 {
		ls.s.Pop()
	}
	ls.s.Push()
	for i := 0; i < 3; i++ {
		ls.clause = ls.draw(ls.clause, 3)
		if err := ls.s.AddClause(ls.clause); err != nil {
			tb.Fatal(err)
		}
	}
	ls.assume = ls.draw(ls.assume, 8)
	return ls.s.SolveUnderAssumptions(ls.assume)
}

// TestLongSessionGolden pins the long session: the status and core of
// every step (their counts and a hash over the sequence) and the final
// cumulative stats. The session goldens above run five calls on a fresh
// solver; this one covers hundreds of frames, so every per-variable and
// per-literal array is grown by Push many times over mid-search.
func TestLongSessionGolden(t *testing.T) {
	ls := newLongSession(t)
	var words []uint64
	var sat, unsat int
	for k := 0; k < longSessionSteps; k++ {
		st, core := ls.step(t, k)
		switch st {
		case Sat:
			sat++
		case Unsat:
			unsat++
		}
		words = append(words, uint64(st), uint64(len(core)))
		for _, l := range core {
			words = append(words, uint64(l))
		}
	}
	const wantSat, wantUnsat = 100, 200
	const wantHash = uint64(0x40408c318ed916c1)
	wantStats := Stats{34126, 1066516, 25251, 70, 30, 25054, 21077, 0, 0, 0, 900, 47056, 449, 30, 260429, 833564}
	if sat != wantSat || unsat != wantUnsat || ls.s.Stats() != wantStats {
		t.Errorf("%d SAT, %d UNSAT steps ending %+v; golden %d SAT, %d UNSAT ending %+v",
			sat, unsat, ls.s.Stats(), wantSat, wantUnsat, wantStats)
	}
	if h := propFreqHash(words); h != wantHash {
		t.Errorf("per-step status and core hash %#x, golden %#x", h, wantHash)
	}
}
