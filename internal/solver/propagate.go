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
// The loop holds the literal values, watch lists and arena in locals:
// nothing it calls reallocates them (enqueue writes values in place, and
// the arena grows only outside BCP). Each watcher's blocker value is read
// once, and a long clause's header once.
//
// Every pollStride propagations it polls the solve's context, so a long
// BCP chain cannot run unbounded past a stop signal; a raised stop cause
// is left in s.budget and propagation unwinds as if it reached fixpoint.
func (s *Solver) propagate() cref {
	vals, watches, arena := s.vals, s.watches, s.arena
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
		falseLit := p.not()
		// Clauses watching ¬p: p just became true, so their watched literal
		// ¬p became false and they must be serviced.
		ws := watches[p]
		kept := ws[:0]
		conflict := crefUndef
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Fast path: the blocker literal already satisfies the clause.
			bv := vals[w.blocker]
			if bv == lTrue {
				kept = append(kept, w)
				continue
			}
			if w.ref&watchBinary != 0 {
				// Inlined binary clause: the blocker is the other literal,
				// already known not-true, so the clause either propagates
				// it or is conflicting — no arena access either way.
				c := cref(w.ref &^ watchBinary)
				kept = append(kept, w)
				if bv == lFalse {
					conflict = c
					// Leave the clause's literals in the [other, ¬p] order
					// the generic path would have produced, so conflict
					// analysis iterates identically.
					base := s.litBase(c)
					arena[base] = w.blocker
					arena[base+1] = falseLit
					kept = append(kept, ws[i+1:]...)
					break
				}
				s.enqueue(w.blocker, c)
				continue
			}
			c := cref(w.ref)
			h := uint32(arena[c])
			base := c + 1 + cref(h&hdrLearned)
			cls := arena[base : base+cref(h>>hdrSizeShift)]
			// Ensure the false watched literal sits at cls[1].
			if cls[0] == falseLit {
				cls[0], cls[1] = cls[1], cls[0]
			}
			first := cls[0]
			fv := vals[first]
			if first != w.blocker && fv == lTrue {
				kept = append(kept, watcher{w.ref, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(cls); k++ {
				if vals[cls[k]] != lFalse {
					cls[1], cls[k] = cls[k], cls[1]
					nw := cls[1].not()
					watches[nw] = append(watches[nw], watcher{w.ref, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved to another list
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.ref, first})
			if fv == lFalse {
				conflict = c
				// Copy the remaining watchers back and stop.
				kept = append(kept, ws[i+1:]...)
				break
			}
			s.enqueue(first, c)
		}
		watches[p] = kept
		if conflict != crefUndef {
			s.qhead = len(s.trail)
			return conflict
		}
	}
	return crefUndef
}
