package solver

import (
	"context"

	"neuroselect/internal/cnf"
)

// SolveUnderAssumptions runs the CDCL search with the given literals fixed
// as pseudo-decisions (MiniSat's incremental interface). On Unsat it also
// returns the subset of assumptions the refutation actually used (the
// "failed assumptions" / unsat core over assumptions); the solver remains
// usable for further calls with different assumptions.
//
// Open Push frames participate transparently: their activation literals
// are assumed ahead of the caller's assumptions, and are filtered from
// the returned core, so an UNSAT answer that depends only on frame
// clauses reports an empty core. The returned core aliases solver-owned
// scratch and is valid until the next solve or AddClause call.
func (s *Solver) SolveUnderAssumptions(assumptions []cnf.Lit) (Status, []cnf.Lit) {
	return s.SolveUnderAssumptionsContext(context.Background(), assumptions)
}

// SolveUnderAssumptionsContext is SolveUnderAssumptions under a context,
// which stops the search as it does for SolveContext.
func (s *Solver) SolveUnderAssumptionsContext(ctx context.Context, assumptions []cnf.Lit) (Status, []cnf.Lit) {
	return s.solve(ctx, s.assumptionPrefix(assumptions), true)
}

// assumptionPrefix builds the search prefix in solver-owned scratch: the
// open frames' activation literals, then the caller's assumptions.
// Assumptions over variables the solver has never seen are trivially free
// and map to litUndef.
func (s *Solver) assumptionPrefix(assumptions []cnf.Lit) []lit {
	prefix := s.assumeBuf[:0]
	for _, t := range s.frames {
		prefix = append(prefix, mkLit(t, false))
	}
	for _, a := range assumptions {
		prefix = append(prefix, s.assumeLit(a))
	}
	s.assumeBuf = prefix
	return prefix
}

// reasonRest returns the non-implied literals of reason clause c, which
// propagated literal p. It first normalizes the clause so p sits at
// position 0 — binary reasons propagated through the inlined watch path
// arrive unnormalized, whereas the generic path normalizes at propagation
// time.
func (s *Solver) reasonRest(c cref, p lit) []lit {
	cls := s.clauseLits(c)
	if cls[0] != p {
		for k := 1; k < len(cls); k++ {
			if cls[k] == p {
				cls[0], cls[k] = cls[k], cls[0]
				break
			}
		}
	}
	return cls[1:]
}

// analyzeFinal collects the failed-assumption core of a refutation inside
// the prefix. It walks the implication graph backwards over FALSE
// literals: for a false literal q, the true literal q.not() is either an
// assumption (it joins the core) or was propagated by a reason clause
// (whose other literals are walked in turn); level-zero literals end the
// walk. The walk starts from one of two seeds:
//   - the conflict clause, for a conflict within the prefix
//     (falsified == litUndef);
//   - falsified, a prefix literal already false when its level came up.
//     It heads the core and is explained even when false at level zero;
//     if its complement is an assumption too, that pair is the core.
//
// Activation literals (frame guards) are assumptions but have no user
// form; userLitOf filters them from the core. All bookkeeping lives in
// solver-owned scratch (assumpMark, seen + seenClear, finalStack,
// coreBuf), so steady-state core extraction is allocation-free; the
// returned slice aliases coreBuf.
func (s *Solver) analyzeFinal(conflict cref, falsified lit, prefix []lit) []cnf.Lit {
	for _, a := range prefix {
		if a != litUndef {
			s.assumpMark[a] = true
		}
	}
	core := s.coreBuf[:0]
	stack := s.finalStack[:0]
	cleared := s.seenClear[:0]
	if falsified != litUndef {
		if ul, ok := s.userLitOf(falsified); ok {
			core = append(core, ul)
		}
		stack = append(stack, falsified)
	} else {
		for _, l := range s.clauseLits(conflict) {
			if s.level[l.v()] > 0 {
				stack = append(stack, l)
			}
		}
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := l.v()
		if s.seen[v] || (s.level[v] == 0 && l != falsified) {
			continue
		}
		s.seen[v] = true
		cleared = append(cleared, v)
		if s.assumpMark[l.not()] {
			if ul, ok := s.userLitOf(l.not()); ok {
				core = append(core, ul)
			}
			continue
		}
		// Every decision inside the prefix is an assumption, so only a
		// root unit (the falsified seed at level zero) lacks a reason.
		if r := s.reason[v]; r != crefUndef {
			stack = append(stack, s.reasonRest(r, l.not())...)
		}
	}
	for _, v := range cleared {
		s.seen[v] = false
	}
	for _, a := range prefix {
		if a != litUndef {
			s.assumpMark[a] = false
		}
	}
	s.finalStack, s.seenClear, s.coreBuf = stack[:0], cleared[:0], core
	return core
}
