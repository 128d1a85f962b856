package solver

// Incremental (IPASIR-style) interface: add clauses between solves, push
// and pop assumption frames, and solve under assumptions repeatedly — all
// on one Solver, so every call after the first reuses the learned-clause
// arena, EVSIDS activities, saved phases, and clause activities the
// earlier calls paid for.
//
// Clause addition. A clause added after construction is installed at
// decision level zero with the same normalization as a problem clause but
// allocated as a glue-1 *learned* clause: the arena's learned region
// assumes the 2-word learned header layout during GC compaction, and
// glue 1 sits at or below tier1Glue, so the clause is
// permanent (reduce never selects it) while keeping the arena layout
// invariants intact.
//
// Frames. Push opens a frame by allocating a fresh internal activation
// variable t; clauses added under the frame are stored as C ∨ ¬t and every
// solve assumes t, so the guard is false and C must hold. Pop retires the
// frame by asserting the permanent unit ¬t, which satisfies — and thereby
// permanently disables — every clause of the frame. Activation variables
// are invisible to callers: they never appear in models or cores, and the
// user→internal variable maps (materialized lazily on the first Push) keep
// user variable numbering dense and stable even as new user variables and
// activation variables interleave internally.

import (
	"fmt"

	"neuroselect/internal/cnf"
)

// ensureVars grows every per-variable structure to hold n internal
// variables. New variables join unassigned, with the default phase, zero
// activity, and a seat on the decision heap.
func (s *Solver) ensureVars(n int) {
	if n <= s.numVars {
		return
	}
	old := s.numVars
	s.numVars = n
	grow := n - old
	for len(s.watches) < 2*n {
		s.watches = append(s.watches, nil)
	}
	s.vals = append(s.vals, make([]lbool, 2*grow)...)
	s.assumpMark = append(s.assumpMark, make([]bool, 2*grow)...)
	s.level = append(s.level, make([]int32, grow)...)
	s.activity = append(s.activity, make([]float64, grow)...)
	s.propFreq = append(s.propFreq, make([]uint64, grow)...)
	s.propFreqTotal = append(s.propFreqTotal, make([]uint64, grow)...)
	s.seen = append(s.seen, make([]bool, grow)...)
	s.analyzeTS = append(s.analyzeTS, make([]int32, grow)...)
	for v := old; v < n; v++ {
		s.reason = append(s.reason, crefUndef)
		s.phase = append(s.phase, s.opts.InitialPhase)
		s.heap.pos = append(s.heap.pos, -1)
		s.heap.push(v)
	}
}

// materializeVarMaps switches from the implicit identity user↔internal
// variable mapping to explicit map slices. Called by the first Push, the
// moment user and internal numbering can diverge; before that the maps
// stay nil and every hot path skips them.
func (s *Solver) materializeVarMaps() {
	if s.u2i != nil {
		return
	}
	s.u2i = make([]int32, s.numVars)
	s.i2u = make([]int32, s.numVars)
	for v := 0; v < s.numVars; v++ {
		s.u2i[v] = int32(v)
		s.i2u[v] = int32(v)
	}
}

// internalLitOfUser maps a user literal to internal form, allocating a
// fresh internal variable if the user variable is new.
func (s *Solver) internalLitOfUser(l cnf.Lit) lit {
	u := l.Var() - 1
	var v int
	if s.u2i == nil {
		if u >= s.numVars {
			s.ensureVars(u + 1)
			s.uvars = s.numVars
		}
		v = u
	} else {
		for len(s.u2i) <= u {
			s.u2i = append(s.u2i, -1)
		}
		if s.u2i[u] < 0 {
			v = s.numVars
			s.ensureVars(v + 1)
			s.u2i[u] = int32(v)
			s.i2u = append(s.i2u, int32(u))
		} else {
			v = int(s.u2i[u])
		}
		if u >= s.uvars {
			s.uvars = u + 1
		}
	}
	return mkLit(v, l < 0)
}

// assumeLit maps a user assumption literal to internal form without
// allocating variables: an assumption over a variable the solver has never
// seen is trivially free and maps to litUndef.
func (s *Solver) assumeLit(l cnf.Lit) lit {
	u := l.Var() - 1
	if s.u2i == nil {
		if u >= s.numVars {
			return litUndef
		}
		return mkLit(u, l < 0)
	}
	if u >= len(s.u2i) || s.u2i[u] < 0 {
		return litUndef
	}
	return mkLit(int(s.u2i[u]), l < 0)
}

// userLitOf maps an internal literal back to user numbering. Activation
// literals have no user form; ok is false for them.
func (s *Solver) userLitOf(l lit) (cnf.Lit, bool) {
	u := l.v()
	if s.i2u != nil {
		if s.i2u[u] < 0 {
			return 0, false
		}
		u = int(s.i2u[u])
	}
	c := cnf.Lit(u + 1)
	if l.neg() {
		c = -c
	}
	return c, true
}

// MaxAddClauseLen is the largest clause AddClause is guaranteed to accept:
// the arena header caps the representable clause size, and one literal of
// headroom is reserved for the activation guard appended under an open
// frame. Callers that need all-or-nothing batch semantics (the server's
// session step) validate against this before mutating the solver.
const MaxAddClauseLen = maxClauseSize - 1

// AddClause installs one clause between solves (IPASIR add). New user
// variables are allocated on sight. Under an open frame the clause belongs
// to that frame and dies with its Pop; otherwise it is permanent. An empty
// (or root-falsified) clause moves the solver to the unsatisfiable state —
// not an error; subsequent solves return Unsat. The only error is a
// malformed clause (zero literal, arena size limit).
func (s *Solver) AddClause(c cnf.Clause) error {
	for _, l := range c {
		if l == 0 {
			return fmt.Errorf("solver: zero literal in incremental clause")
		}
	}
	if !s.ok {
		return nil
	}
	s.cancelUntil(0)
	buf := s.addBuf[:0]
	for _, l := range c {
		buf = append(buf, s.internalLitOfUser(l))
	}
	if len(s.frames) > 0 {
		// Guard: C becomes C ∨ ¬t for the innermost open frame t.
		buf = append(buf, mkLit(s.frames[len(s.frames)-1], true))
	}
	// Glue 1 ≤ tier1Glue: permanent under every reduction policy, and the
	// learned header layout keeps the arena GC's parse of the learned
	// region valid (problem-layout clauses must not appear above
	// problemEnd). Every clause that survives root simplification counts.
	n, err := s.installRoot(buf, 1)
	if n >= 0 {
		s.stats.AddedClauses++
	}
	return err
}

// Push opens an assumption frame (IPASIR-incremental push): clauses added
// until the matching Pop are retractable as a unit.
func (s *Solver) Push() {
	s.materializeVarMaps()
	t := s.numVars
	s.ensureVars(t + 1)
	s.i2u = append(s.i2u, -1) // activation variable: no user number
	s.frames = append(s.frames, t)
}

// Pop retires the innermost frame, permanently disabling every clause
// added under it, and reports whether a frame was open.
func (s *Solver) Pop() bool {
	if len(s.frames) == 0 {
		return false
	}
	t := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	if !s.ok {
		return true
	}
	s.cancelUntil(0)
	// ¬t satisfies every clause of the frame forever. The enqueue cannot
	// conflict (t is never asserted at the root) but fail closed anyway.
	if !s.enqueue(mkLit(t, true), crefUndef) {
		s.ok = false
		return true
	}
	if conflict := s.propagate(); conflict != crefUndef {
		s.ok = false
	}
	return true
}

// FrameDepth returns the number of open assumption frames.
func (s *Solver) FrameDepth() int { return len(s.frames) }

// UserVars returns the number of user-visible variables (excluding
// internal activation variables).
func (s *Solver) UserVars() int { return s.uvars }

// VarsAfter bounds how many variables the solver would number after
// opening push frames and then adding the clauses cs, without changing
// anything: the larger of the internal count (one activation variable per
// frame, plus the user variables cs introduces) and the user-visible count
// (the variable map grows to the highest user variable). The bound is
// exact unless the solver is or becomes unsatisfiable, after which adds
// allocate nothing. A caller can refuse a step that would grow the solver
// too far before any of it runs.
func (s *Solver) VarsAfter(push int, cs []cnf.Clause) int {
	n, users := s.numVars+push, s.uvars
	// Before the first Push the maps are the identity: user variable u is
	// internal variable u, and adding it allocates every variable below.
	identity := s.u2i == nil && push == 0
	mapped := func(u int) bool { return u < s.uvars }
	if s.u2i != nil {
		mapped = func(u int) bool { return u < len(s.u2i) && s.u2i[u] >= 0 }
	}
	added := map[int]bool{}
	for _, c := range cs {
		for _, l := range c {
			u := l.Var() - 1
			users = max(users, u+1)
			switch {
			case identity:
				n = max(n, u+1)
			case !mapped(u) && !added[u]:
				added[u] = true
				n++
			}
		}
	}
	return max(n, users)
}

// VarFootprint is Footprint's charge for n variables alone: what a solver
// over n variables and no clauses reports.
func VarFootprint(n int) int64 {
	return int64(n)*101 + int64(2*n)*24
}

// Footprint estimates the solver's resident memory in bytes: the clause
// arena, clause activities, watch lists, and roughly 101 bytes per
// variable of value/heap/analysis state. Warm-session memory caps
// compare this estimate against their budget; it deliberately overcounts
// slightly rather than under.
func (s *Solver) Footprint() int64 {
	b := int64(cap(s.arena)) * 4
	b += int64(cap(s.clauseAct)) * 8
	b += int64(cap(s.clauses)+cap(s.learned)) * 4
	for i := range s.watches {
		b += int64(cap(s.watches[i])) * 8
	}
	b += int64(cap(s.watches)) * 24
	b += int64(cap(s.trail)+cap(s.assumeBuf)+cap(s.finalStack)) * 4
	b += int64(s.numVars) * 101
	return b
}
