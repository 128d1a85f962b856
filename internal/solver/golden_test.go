package solver

import (
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
)

// The tables below pin the exact search trajectory of the solver on a
// fixed-seed instance suite. The values were recorded from the pre-arena
// pointer-based solver (commit 16826a9), so they prove the arena refactor
// — cref clause storage, inlined binary watches, mark-and-compact GC, and
// scratch-buffer reuse — is search-neutral: not one decision, propagation,
// conflict, or learned clause differs. Any future change that shifts these
// numbers is changing search behavior, not just representation, and must
// update the table deliberately.

// goldenOptions is the option set the trajectories were recorded under.
func goldenOptions(p deletion.Policy) Options {
	return Options{Policy: p, ReduceFirst: 50, ReduceInc: 25}
}

func goldenInstances() []gen.Instance {
	return []gen.Instance{
		gen.RandomKSAT(100, 426, 3, 11),
		gen.RandomKSAT(120, 511, 3, 7),
		gen.RandomKSAT(150, 600, 3, 5),
		gen.Pigeonhole(7),
		gen.Tseitin(16, 3, false, 4),
		gen.Tseitin(16, 3, true, 8),
		gen.GraphColoring(20, 50, 3, 9),
		gen.ParityChain(14, 9, 5, false, 3),
		gen.Miter(8, 60, false, 2),
		gen.Miter(8, 60, true, 6),
		gen.NQueens(8),
	}
}

var goldenTrajectories = []struct {
	name, policy, status                     string
	dec, prop, conf, rest, red, learned, del int64
	units, bins, minlits                     int64
	maxTrail                                 int
}{
	{"rand3sat-n100-m426-s11", "default", "UNSAT", 852, 21305, 693, 4, 6, 692, 397, 5, 19, 1415, 94},
	{"rand3sat-n100-m426-s11", "frequency", "UNSAT", 845, 21298, 690, 4, 6, 689, 398, 5, 20, 1403, 94},
	{"rand3sat-n120-m511-s7", "default", "UNSAT", 888, 23675, 743, 4, 6, 742, 414, 6, 19, 1357, 98},
	{"rand3sat-n120-m511-s7", "frequency", "UNSAT", 828, 22306, 683, 4, 6, 682, 395, 2, 17, 1440, 98},
	{"rand3sat-n150-m600-s5", "default", "SAT", 203, 5165, 139, 1, 2, 139, 64, 0, 0, 307, 150},
	{"rand3sat-n150-m600-s5", "frequency", "SAT", 203, 5165, 139, 1, 2, 139, 64, 0, 0, 307, 150},
	{"php-7", "default", "UNSAT", 8735, 121190, 7210, 29, 22, 7209, 6180, 4, 13, 21815, 56},
	{"php-7", "frequency", "UNSAT", 9273, 131322, 7752, 29, 23, 7751, 6766, 6, 9, 23813, 56},
	{"tseitin-unsat-v16-d3-s4", "default", "UNSAT", 91, 681, 81, 0, 1, 80, 13, 3, 9, 35, 24},
	{"tseitin-unsat-v16-d3-s4", "frequency", "UNSAT", 91, 681, 81, 0, 1, 80, 13, 3, 9, 35, 24},
	{"tseitin-sat-v16-d3-s8", "default", "SAT", 30, 119, 16, 0, 0, 16, 0, 0, 0, 0, 24},
	{"tseitin-sat-v16-d3-s8", "frequency", "SAT", 30, 119, 16, 0, 0, 16, 0, 0, 0, 0, 24},
	{"color-v20-e50-k3-s9", "default", "UNSAT", 10, 168, 8, 0, 0, 7, 0, 6, 0, 0, 39},
	{"color-v20-e50-k3-s9", "frequency", "UNSAT", 10, 168, 8, 0, 0, 7, 0, 6, 0, 0, 39},
	{"parity-unsat-n14-c9-w5-s3", "default", "UNSAT", 26, 90, 25, 0, 0, 24, 0, 4, 6, 6, 14},
	{"parity-unsat-n14-c9-w5-s3", "frequency", "UNSAT", 26, 90, 25, 0, 0, 24, 0, 4, 6, 6, 14},
	{"miter-equiv-i8-g60-s2", "default", "UNSAT", 28, 573, 20, 0, 0, 19, 0, 5, 7, 6, 114},
	{"miter-equiv-i8-g60-s2", "frequency", "UNSAT", 28, 573, 20, 0, 0, 19, 0, 5, 7, 6, 114},
	{"miter-faulty-i8-g60-s6", "default", "UNSAT", 11, 465, 9, 0, 0, 8, 0, 3, 3, 4, 98},
	{"miter-faulty-i8-g60-s6", "frequency", "UNSAT", 11, 465, 9, 0, 0, 8, 0, 3, 3, 4, 98},
	{"queens-8", "default", "SAT", 47, 390, 20, 0, 0, 20, 0, 0, 0, 8, 64},
	{"queens-8", "frequency", "SAT", 47, 390, 20, 0, 0, 20, 0, 0, 0, 8, 64},
}

// TestSearchTrajectoryGolden replays the fixed-seed suite under both
// deletion policies and demands the recorded pre-arena trajectory, stat
// for stat.
func TestSearchTrajectoryGolden(t *testing.T) {
	insts := map[string]gen.Instance{}
	for _, in := range goldenInstances() {
		insts[in.Name] = in
	}
	policies := map[string]deletion.Policy{
		"default":   deletion.DefaultPolicy{},
		"frequency": deletion.FrequencyPolicy{},
	}
	for _, g := range goldenTrajectories {
		g := g
		t.Run(g.name+"/"+g.policy, func(t *testing.T) {
			in, ok := insts[g.name]
			if !ok {
				t.Fatalf("golden instance %q missing from goldenInstances", g.name)
			}
			res, err := Solve(in.F, goldenOptions(policies[g.policy]))
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if res.Status.String() != g.status {
				t.Fatalf("status %v, golden %s", res.Status, g.status)
			}
			got := []int64{st.Decisions, st.Propagations, st.Conflicts, st.Restarts,
				st.Reductions, st.Learned, st.Deleted, st.UnitsLearned,
				st.BinariesLearned, st.MinimizedLits, int64(st.MaxTrail)}
			want := []int64{g.dec, g.prop, g.conf, g.rest, g.red, g.learned, g.del,
				g.units, g.bins, g.minlits, int64(g.maxTrail)}
			labels := []string{"decisions", "propagations", "conflicts", "restarts",
				"reductions", "learned", "deleted", "units", "binaries",
				"minimized", "maxtrail"}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s = %d, golden %d", labels[i], got[i], want[i])
				}
			}
		})
	}
}

// propFreqHash is FNV-1a over the cumulative propagation-frequency vector.
func propFreqHash(freqs []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, f := range freqs {
		for i := 0; i < 8; i++ {
			h ^= (f >> (8 * uint(i))) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestPropagationFrequencyGolden pins the full per-variable propagation-
// frequency distribution (the Figure 3 / Eq. 2 input) against hashes
// recorded from the pre-arena solver: the inlined binary-propagation path
// must count f_v and MaxTrail exactly like the generic path it replaced.
func TestPropagationFrequencyGolden(t *testing.T) {
	golden := []struct {
		inst     gen.Instance
		hash     uint64
		maxTrail int
	}{
		{gen.RandomKSAT(120, 511, 3, 7), 0xed3238ec7e4c5b3e, 98},
		{gen.Pigeonhole(7), 0xe858afccf4296957, 56},
		{gen.ParityChain(14, 9, 5, false, 3), 0xe11e4ac2f489b9d7, 14},
	}
	for _, g := range golden {
		s, err := New(g.inst.F, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		s.Solve()
		if h := propFreqHash(s.PropagationFrequencies()); h != g.hash {
			t.Errorf("%s: propFreq hash %#x, golden %#x", g.inst.Name, h, g.hash)
		}
		if mt := s.Stats().MaxTrail; mt != g.maxTrail {
			t.Errorf("%s: MaxTrail %d, golden %d", g.inst.Name, mt, g.maxTrail)
		}
	}
}

// TestBinaryWatchSpecializationNeutral runs the same fixed-seed instances
// with the inlined binary-clause watch path enabled and disabled and
// demands identical stats and identical per-variable propagation counts:
// the specialization is a pure representation change, invisible to Eq. 2's
// f_v ranking and every other counter.
func TestBinaryWatchSpecializationNeutral(t *testing.T) {
	for _, in := range goldenInstances() {
		for _, p := range []deletion.Policy{deletion.DefaultPolicy{}, deletion.FrequencyPolicy{}} {
			fast, err := New(in.F, goldenOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			slowOpts := goldenOptions(p)
			slowOpts.disableBinaryWatch = true
			slow, err := New(in.F, slowOpts)
			if err != nil {
				t.Fatal(err)
			}
			stFast, stSlow := fast.Solve(), slow.Solve()
			if stFast != stSlow {
				t.Fatalf("%s/%s: status %v (inlined) vs %v (generic)", in.Name, p.Name(), stFast, stSlow)
			}
			if fast.Stats() != slow.Stats() {
				t.Fatalf("%s/%s: stats diverge\ninlined: %+v\ngeneric: %+v",
					in.Name, p.Name(), fast.Stats(), slow.Stats())
			}
			ff, sf := fast.PropagationFrequencies(), slow.PropagationFrequencies()
			for v := range ff {
				if ff[v] != sf[v] {
					t.Fatalf("%s/%s: propFreq[%d] = %d (inlined) vs %d (generic)",
						in.Name, p.Name(), v, ff[v], sf[v])
				}
			}
		}
	}
}

// TestSteadyStateAllocationFree verifies that the search itself stays out
// of the allocator: conflict analysis, clause learning, database
// reduction, and assumption-core extraction all run on the arena and
// solver-owned scratch buffers.
func TestSteadyStateAllocationFree(t *testing.T) {
	// A full cold solve of php-7 drives ~7k conflicts and ~22 reductions;
	// everything AllocsPerRun sees is construction plus amortized
	// watch-list/arena doubling, which grows logarithmically, not per
	// conflict. The pre-arena solver allocated ~2 per conflict on this
	// instance (≈14.5k per run); the bound of 0.2 per conflict fails if
	// any per-conflict or per-reduction allocation sneaks back into the
	// hot path.
	t.Run("cold-solve", func(t *testing.T) {
		inst := gen.Pigeonhole(7)
		var conflicts int64
		allocs := testing.AllocsPerRun(3, func() {
			s, err := New(inst.F, goldenOptions(nil))
			if err != nil {
				t.Fatal(err)
			}
			if s.Solve() != Unsat {
				t.Fatal("php-7 must be UNSAT")
			}
			conflicts = s.Stats().Conflicts
		})
		if conflicts < 5000 {
			t.Fatalf("instance too easy to exercise steady state: %d conflicts", conflicts)
		}
		if limit := float64(conflicts) / 5; allocs > limit {
			t.Errorf("%v allocs for %d conflicts; want ≤ %v (search must not allocate per conflict)",
				allocs, conflicts, limit)
		}
	})

	// Assumption solving must be just as clean: both failed-assumption
	// analyses (analyzeFinal for a conflict inside the prefix,
	// coreOfFalsified for an assumption contradicted by prefix
	// propagation) used to allocate a map plus two slices per call; they
	// now run on solver-owned scratch, so repeated UNSAT-with-core solves
	// on a warm solver perform zero allocations. (The SAT path is excluded
	// deliberately: extracting a model snapshot allocates by design.)
	t.Run("assumption-cores", func(t *testing.T) {
		const n = 60
		chainConflict := cnf.New(n)
		chainFree := cnf.New(n)
		for i := 1; i < n; i++ {
			chainConflict.MustAddClause(-cnf.Lit(i), cnf.Lit(i+1))
			chainFree.MustAddClause(-cnf.Lit(i), cnf.Lit(i+1))
		}
		chainConflict.MustAddClause(-cnf.Lit(n-1), -cnf.Lit(n))
		sFinal, err := New(chainConflict, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		sFalsified, err := New(chainFree, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		aFinal := []cnf.Lit{1}         // chain propagates into the conflict clause → analyzeFinal
		aFalsified := []cnf.Lit{1, -n} // chain forces x_n true → coreOfFalsified on ¬x_n
		allocs := testing.AllocsPerRun(10, func() {
			if st, core := sFinal.SolveUnderAssumptions(aFinal); st != Unsat || len(core) != 1 {
				t.Fatalf("analyzeFinal query: %v, core %v", st, core)
			}
			if st, core := sFalsified.SolveUnderAssumptions(aFalsified); st != Unsat || len(core) != 2 {
				t.Fatalf("coreOfFalsified query: %v, core %v", st, core)
			}
		})
		if allocs > 0 {
			t.Errorf("%v allocs per warm assumption solve; want 0", allocs)
		}
	})

	// A warm session pops and pushes a frame before each solve, and every
	// Push adds an activation variable. Core extraction's per-literal
	// assumption marks grow with the other per-literal arrays, amortized,
	// so an UNSAT step after a Push does not reallocate them.
	t.Run("frame-cores", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race instrumentation turns off the compiler's append-of-make rewrite, so ensureVars allocates its growth on every Push")
		}
		const n = 60
		f := cnf.New(n)
		for i := 1; i < n; i++ {
			f.MustAddClause(-cnf.Lit(i), cnf.Lit(i+1))
		}
		f.MustAddClause(-cnf.Lit(n-1), -cnf.Lit(n))
		s, err := New(f, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		s.Push()
		allocs := testing.AllocsPerRun(100, func() {
			s.Pop()
			s.Push()
			if st, core := s.SolveUnderAssumptions([]cnf.Lit{1}); st != Unsat || len(core) != 1 {
				t.Fatalf("frame step: %v, core %v", st, core)
			}
		})
		if allocs > 0 {
			t.Errorf("%v allocs per Pop/Push UNSAT step; want 0 (amortized growth only)", allocs)
		}
	})
}
