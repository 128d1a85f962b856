package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
)

// checkWatchInvariant verifies that every live clause of length ≥ 2 is
// present in exactly the two watch lists of its first two literals'
// negations, that binary clauses are watched through the inlined encoding
// (watchBinary tag, blocker = other literal), and that no watcher or
// reason references a deleted clause (the arena GC removes them eagerly).
func checkWatchInvariant(t *testing.T, s *Solver) {
	t.Helper()
	count := map[cref]int{}
	where := map[cref][]lit{}
	for li, ws := range s.watches {
		for _, w := range ws {
			c := cref(w.ref &^ watchBinary)
			if s.clauseDeleted(c) {
				t.Fatalf("watch list %d holds deleted clause %v", li, s.clauseLits(c))
			}
			if bin := w.ref&watchBinary != 0; bin != (s.clauseSize(c) == 2 && !s.opts.disableBinaryWatch) {
				t.Fatalf("clause %v: binary-watch tag %v does not match size %d",
					s.clauseLits(c), bin, s.clauseSize(c))
			}
			if w.ref&watchBinary != 0 {
				cls := s.clauseLits(c)
				other := cls[0]
				if other.not() == lit(li) {
					other = cls[1]
				}
				if w.blocker != other {
					t.Fatalf("binary clause %v watched under %v with blocker %v, want %v",
						cls, lit(li), w.blocker, other)
				}
			}
			count[c]++
			where[c] = append(where[c], lit(li))
		}
	}
	check := func(c cref) {
		cls := s.clauseLits(c)
		if count[c] != 2 {
			t.Fatalf("clause %v appears in %d watch lists, want 2", cls, count[c])
		}
		want := map[lit]bool{cls[0].not(): true, cls[1].not(): true}
		for _, li := range where[c] {
			if !want[li] {
				t.Fatalf("clause %v watched under wrong literal %v", cls, li)
			}
		}
	}
	for _, c := range s.clauses {
		check(c)
	}
	for _, c := range s.learned {
		check(c)
	}
}

// checkArenaInvariant walks the raw arena and verifies the structural
// invariants the GC must preserve: the arena parses into back-to-back
// clause blocks, no block is marked deleted or protected outside a
// reduction, every watcher/reason/learned-index cref is a live block
// start, the learned index is in arena order with sequential activity
// slots, and the activity slice is exactly as long as the live learned
// count.
func checkArenaInvariant(t *testing.T, s *Solver) {
	t.Helper()
	starts := map[cref]bool{}
	learnedStarts := 0
	for c := cref(0); c < cref(len(s.arena)); {
		h := s.header(c)
		size := int(h >> hdrSizeShift)
		if size < 2 {
			t.Fatalf("arena block at %d has size %d, want ≥ 2", c, size)
		}
		if h&hdrDeleted != 0 {
			t.Fatalf("arena block at %d still marked deleted after GC", c)
		}
		if h&hdrProtect != 0 {
			t.Fatalf("arena block at %d left protect-marked outside reduce", c)
		}
		if h&hdrLearned != 0 {
			learnedStarts++
		} else if c >= s.problemEnd {
			t.Fatalf("problem clause at %d above problemEnd %d", c, s.problemEnd)
		}
		starts[c] = true
		c = s.litBase(c) + cref(size)
	}
	if len(s.clauseAct) != len(s.learned) || learnedStarts != len(s.learned) {
		t.Fatalf("learned bookkeeping: %d indexed, %d arena blocks, %d activities",
			len(s.learned), learnedStarts, len(s.clauseAct))
	}
	prev := cref(0)
	for i, c := range s.learned {
		if !starts[c] || !s.clauseLearned(c) {
			t.Fatalf("learned[%d] = %d is not a live learned block", i, c)
		}
		if i > 0 && c <= prev {
			t.Fatalf("learned index out of arena order at %d", i)
		}
		prev = c
		if int(s.actSlot(c)) != i {
			t.Fatalf("learned[%d] has activity slot %d", i, s.actSlot(c))
		}
	}
	for _, c := range s.clauses {
		if !starts[c] || s.clauseLearned(c) || c >= s.problemEnd {
			t.Fatalf("problem cref %d invalid", c)
		}
	}
	for li, ws := range s.watches {
		for _, w := range ws {
			if c := cref(w.ref &^ watchBinary); !starts[c] {
				t.Fatalf("watch list %d references %d, not a live clause start", li, c)
			}
		}
	}
	for v, r := range s.reason {
		if r != crefUndef && s.vals[mkLit(v, false)] != lUndef && !starts[r] {
			t.Fatalf("reason of assigned var %d references %d, not a live clause start", v, r)
		}
	}
}

// checkValueInvariant verifies the per-literal value array: it and the
// assumption marks hold two entries per variable, each variable's two
// literals hold complementary values (both lUndef when unassigned), every
// trail literal is true, and exactly the trail's variables are assigned.
func checkValueInvariant(t *testing.T, s *Solver) {
	t.Helper()
	if len(s.vals) != 2*s.numVars || len(s.assumpMark) != 2*s.numVars {
		t.Fatalf("%d values and %d assumption marks for %d variables",
			len(s.vals), len(s.assumpMark), s.numVars)
	}
	assigned := 0
	for v := 0; v < s.numVars; v++ {
		pos := mkLit(v, false)
		if s.vals[pos] != -s.vals[pos.not()] {
			t.Fatalf("var %d: values %d and %d are not complementary", v, s.vals[pos], s.vals[pos.not()])
		}
		if s.vals[pos] != lUndef {
			assigned++
		}
	}
	for _, l := range s.trail {
		if s.vals[l] != lTrue {
			t.Fatalf("trail literal %v has value %d", l, s.vals[l])
		}
	}
	if assigned != len(s.trail) {
		t.Fatalf("%d variables assigned, trail holds %d", assigned, len(s.trail))
	}
}

func TestWatchInvariantAfterSolve(t *testing.T) {
	for _, in := range []gen.Instance{
		gen.RandomKSAT(60, 255, 3, 21),
		gen.Pigeonhole(6),
		gen.Tseitin(16, 3, false, 4),
	} {
		s, err := New(in.F, Options{ReduceFirst: 50, ReduceInc: 25})
		if err != nil {
			t.Fatal(err)
		}
		s.Solve()
		checkWatchInvariant(t, s)
		checkArenaInvariant(t, s)
		checkValueInvariant(t, s)
	}
}

// TestArenaGCInvariants forces very aggressive reduction so the arena is
// compacted many times, then checks that every watch entry, reason
// reference, and learned-index entry is a live cref and the arena parses
// cleanly — the compaction left no dangling or tombstoned references.
func TestArenaGCInvariants(t *testing.T) {
	for _, in := range []gen.Instance{
		gen.RandomKSAT(80, 340, 3, 5),
		gen.Pigeonhole(7),
		gen.Tseitin(14, 3, false, 2),
	} {
		s, err := New(in.F, Options{ReduceFirst: 1, ReduceInc: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Solve()
		if s.stats.Reductions == 0 {
			t.Fatalf("%s: aggressive schedule produced no reductions", in.Name)
		}
		checkWatchInvariant(t, s)
		checkArenaInvariant(t, s)
		checkValueInvariant(t, s)
	}
}

func TestReduceKeepsTier1AndReasons(t *testing.T) {
	inst := gen.RandomKSAT(80, 340, 3, 5)
	s, err := New(inst.F, Options{ReduceFirst: 30, ReduceInc: 15})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	if s.stats.Reductions == 0 {
		t.Skip("no reductions on this instance")
	}
	// The GC reclaims deleted clauses immediately, so surviving learned
	// clauses are exactly the keepers; tier-1 and binary clauses must all
	// have survived every reduction.
	if s.stats.Deleted == 0 {
		t.Skip("no deletions on this instance")
	}
	for _, c := range s.learned {
		if s.clauseDeleted(c) {
			t.Fatalf("learned index holds deleted clause %v", s.clauseLits(c))
		}
	}
	var bins int64
	for _, c := range s.learned {
		if s.clauseSize(c) == 2 {
			bins++
		}
	}
	if bins != s.stats.BinariesLearned {
		t.Fatalf("binary learned clauses: %d live, %d ever learned — a binary was deleted",
			bins, s.stats.BinariesLearned)
	}
}

func TestPropFreqResetAfterReduce(t *testing.T) {
	inst := gen.RandomKSAT(80, 340, 3, 6)
	s, err := New(inst.F, Options{ReduceFirst: 30, ReduceInc: 15})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	if s.stats.Reductions == 0 {
		t.Skip("no reductions")
	}
	// The windowed counters were reset at the last reduction, so their sum
	// must be strictly less than the cumulative total.
	var windowed, total uint64
	for i := range s.propFreq {
		windowed += s.propFreq[i]
		total += s.propFreqTotal[i]
	}
	if windowed >= total {
		t.Fatalf("windowed %d should be below cumulative %d after reductions", windowed, total)
	}
}

// TestQuickRandomFormulas is a testing/quick property: the solver agrees
// with brute force on arbitrary small formulas, including degenerate
// clauses, with every deletion policy.
func TestQuickRandomFormulas(t *testing.T) {
	policies := []deletion.Policy{
		deletion.DefaultPolicy{}, deletion.FrequencyPolicy{},
		deletion.ActivityPolicy{}, deletion.SizePolicy{},
	}
	trial := 0
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		trial++
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%10
		m := int(mRaw) % 40
		f := cnf.New(n)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(4)
			lits := make([]cnf.Lit, k) // duplicates/tautologies allowed
			for j := range lits {
				l := cnf.Lit(1 + rng.Intn(n))
				if rng.Intn(2) == 0 {
					l = -l
				}
				lits[j] = l
			}
			f.MustAddClause(lits...)
		}
		want := bruteForce(f)
		res, err := Solve(f, Options{Policy: policies[trial%len(policies)], ReduceFirst: 15, ReduceInc: 10})
		if err != nil || res.Status == Unknown {
			return false
		}
		if (res.Status == Sat) != want {
			return false
		}
		return res.Status != Sat || res.Model.Satisfies(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestLearnedClauseGluesAreBounded(t *testing.T) {
	inst := gen.RandomKSAT(60, 255, 3, 7)
	s, err := New(inst.F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	for _, c := range s.learned {
		g := s.clauseGlue(c)
		if g > s.clauseSize(c) {
			t.Fatalf("glue %d exceeds clause size %d", g, s.clauseSize(c))
		}
		if g < 1 {
			t.Fatalf("glue %d below 1 for clause %v", g, s.clauseLits(c))
		}
	}
}

func TestPhaseSavingPersists(t *testing.T) {
	// After SAT, re-solving the same solver state is not supported, but
	// phases should reflect the found model's polarities for assigned
	// vars.
	inst := gen.RandomKSAT(40, 150, 3, 8)
	s, err := New(inst.F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Sat {
		t.Skip("instance not SAT")
	}
	// All variables assigned at SAT; model extracted.
	m := s.Model()
	if !m.Satisfies(inst.F) {
		t.Fatal("model check")
	}
}

func TestUnknownLeavesNoModel(t *testing.T) {
	inst := gen.Pigeonhole(8)
	res, err := Solve(inst.F, Options{MaxConflicts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown {
		t.Fatal("expected UNKNOWN")
	}
	if res.Model != nil {
		t.Fatal("no model should be produced on UNKNOWN")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("status strings")
	}
}

func TestOptionsDefaultsFilled(t *testing.T) {
	var o Options
	o.fillDefaults()
	if o.Policy == nil || o.RestartBase == 0 ||
		o.ReduceFirst == 0 || o.ReduceFraction == 0 || o.Alpha == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestLearnedCountReflectsDeletions(t *testing.T) {
	inst := gen.Pigeonhole(6)
	s, err := New(inst.F, Options{ReduceFirst: 30, ReduceInc: 15})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	live := int64(s.LearnedClauseCount())
	st := s.Stats()
	// learned = units + live long clauses + deleted long clauses; the GC
	// removed the deleted ones from the index.
	if live > st.Learned-st.UnitsLearned {
		t.Fatalf("live %d exceeds non-unit learned %d", live, st.Learned-st.UnitsLearned)
	}
	if st.Deleted > 0 && live+st.Deleted+st.UnitsLearned != st.Learned {
		t.Fatalf("bookkeeping: live %d + deleted %d + units %d != learned %d",
			live, st.Deleted, st.UnitsLearned, st.Learned)
	}
}
