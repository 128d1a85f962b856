package solver

import "neuroselect/internal/faultpoint"

// propagate performs Boolean constraint propagation over the two-watched-
// literal scheme until fixpoint or conflict. It returns the conflicting
// clause's cref, or crefUndef.
//
// Binary clauses are fully inlined into their watchers: the blocker is the
// clause's other literal, so the satisfied, propagating, and conflicting
// cases are all decided without touching arena memory. Longer clauses walk
// their arena literals looking for a replacement watch, exactly as before.
// Watch lists never contain deleted clauses — the arena GC rewrites them
// eagerly at reduce time — so no tombstone check is needed here.
//
// Every pollStride propagations it polls the solve's context, so a long
// BCP chain cannot run unbounded past a stop signal; a raised stop cause
// is left in s.budget and propagation unwinds as if it reached fixpoint.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		if s.stats.Propagations >= s.nextPoll {
			s.nextPoll = s.stats.Propagations + pollStride
			if err := faultpoint.Hit(faultpoint.SolverPropagate); err != nil {
				panic(err) // contained by SolveContext's recovery
			}
			if err := s.checkStop(); err != nil {
				s.budget = err
				return crefUndef
			}
		}
		p := s.trail[s.qhead]
		s.qhead++
		// Clauses watching ¬p: p just became true, so their watched literal
		// ¬p became false and they must be serviced.
		ws := s.watches[p]
		kept := ws[:0]
		conflict := crefUndef
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Fast path: the blocker literal already satisfies the clause.
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			if w.ref&watchBinary != 0 {
				// Inlined binary clause: the blocker is the other literal,
				// already known not-true, so the clause either propagates
				// it or is conflicting — no arena access either way.
				c := cref(w.ref &^ watchBinary)
				kept = append(kept, w)
				if s.value(w.blocker) == lFalse {
					conflict = c
					// Leave the clause's literals in the [other, ¬p] order
					// the generic path would have produced, so conflict
					// analysis iterates identically.
					base := s.litBase(c)
					s.arena[base] = w.blocker
					s.arena[base+1] = p.not()
					kept = append(kept, ws[i+1:]...)
					break
				}
				s.enqueue(w.blocker, c)
				continue
			}
			c := cref(w.ref)
			cls := s.clauseLits(c)
			falseLit := p.not()
			// Ensure the false watched literal sits at cls[1].
			if cls[0] == falseLit {
				cls[0], cls[1] = cls[1], cls[0]
			}
			first := cls[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{w.ref, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(cls); k++ {
				if s.value(cls[k]) != lFalse {
					cls[1], cls[k] = cls[k], cls[1]
					s.watches[cls[1].not()] = append(s.watches[cls[1].not()], watcher{w.ref, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved to another list
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.ref, first})
			if s.value(first) == lFalse {
				conflict = c
				// Copy the remaining watchers back and stop.
				kept = append(kept, ws[i+1:]...)
				break
			}
			s.enqueue(first, c)
		}
		s.watches[p] = kept
		if conflict != crefUndef {
			s.qhead = len(s.trail)
			return conflict
		}
	}
	return crefUndef
}
