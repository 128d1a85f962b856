package solver

import (
	"sort"

	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
)

// reduce deletes the lowest-ranked fraction of reducible learned clauses
// under the configured deletion policy, compacts the clause arena to
// reclaim their memory, then resets the per-variable propagation-frequency
// window (Eq. 2 counts "since the last clause deletion").
//
// The candidate list, score table, and sorter are solver-owned scratch, so
// a steady-state reduction allocates nothing.
func (s *Solver) reduce() {
	if err := faultpoint.Hit(faultpoint.SolverReduce); err != nil {
		// A failing reduction is an internal invariant violation; escalate
		// to a panic so SolveContext's containment converts it into an
		// error-carrying Unknown result.
		panic(err)
	}
	s.stats.Reductions++
	s.reduceLimit = s.stats.Conflicts + s.opts.ReduceFirst + s.opts.ReduceInc*s.stats.Reductions

	// Protect reason clauses of the current trail.
	for _, l := range s.trail {
		if r := s.reason[l.v()]; r != crefUndef {
			s.setFlag(r, hdrProtect)
		}
	}

	// Gather reducible candidates: learned, above the tier-1 glue
	// threshold, not binary, not currently a reason. (The learned index
	// only ever holds live clauses — the GC removes deleted ones.)
	candidates := s.redCand[:0]
	for _, c := range s.learned {
		h := s.header(c)
		if h&hdrProtect != 0 ||
			int(h>>hdrGlueShift&hdrGlueMax) <= tier1Glue ||
			int(h>>hdrSizeShift) <= 2 {
			continue
		}
		candidates = append(candidates, c)
	}

	nDelete := 0
	if len(candidates) > 0 {
		fmax := uint64(0)
		if s.opts.Policy.NeedsFrequency() {
			for _, f := range s.propFreq {
				if f > fmax {
					fmax = f
				}
			}
		}
		scores := s.redScores[:0]
		for _, c := range candidates {
			scores = append(scores, s.scoreClause(c, fmax))
		}
		s.redSort.crefs, s.redSort.scores = candidates, scores
		sort.Stable(&s.redSort)
		s.redScores = scores
		nDelete = int(float64(len(candidates)) * s.opts.ReduceFraction)
		for _, c := range candidates[:nDelete] {
			s.setFlag(c, hdrDeleted)
			s.stats.Deleted++
			if s.opts.Proof != nil {
				s.opts.Proof.DeleteClause(toCNFSlice(s.clauseLits(c)))
			}
		}
	}
	s.redCand = candidates

	// Clear protection marks.
	for _, l := range s.trail {
		if r := s.reason[l.v()]; r != crefUndef {
			s.clearFlag(r, hdrProtect)
		}
	}

	// Compact the arena, rewriting watch lists, reasons, and the learned
	// index; after this no deleted clause is reachable anywhere.
	if nDelete > 0 {
		s.gcArena()
	}

	if t := s.opts.Tracer; t != nil {
		ev := s.traceEvent(obs.EventReduce)
		ev.Candidates = len(candidates)
		ev.ReduceDeleted = nDelete
		t.Trace(ev)
	}

	// Reset the frequency window.
	for i := range s.propFreq {
		s.propFreq[i] = 0
	}
}

// reduceSorter stable-sorts the candidate crefs by ascending score (ties
// keep learned-index order, matching the previous sort.SliceStable over a
// score map). It lives on the Solver so sorting allocates nothing.
type reduceSorter struct {
	crefs  []cref
	scores []uint64
}

func (r *reduceSorter) Len() int           { return len(r.crefs) }
func (r *reduceSorter) Less(i, j int) bool { return r.scores[i] < r.scores[j] }
func (r *reduceSorter) Swap(i, j int) {
	r.crefs[i], r.crefs[j] = r.crefs[j], r.crefs[i]
	r.scores[i], r.scores[j] = r.scores[j], r.scores[i]
}

// scoreClause evaluates the deletion policy on a clause, computing the
// Eq. 2 frequency feature when the policy requires it.
func (s *Solver) scoreClause(c cref, fmax uint64) uint64 {
	cls := s.clauseLits(c)
	ci := deletion.ClauseInfo{
		Glue:     s.clauseGlue(c),
		Size:     len(cls),
		Activity: s.clauseActivity(c),
	}
	if s.opts.Policy.NeedsFrequency() && fmax > 0 {
		threshold := s.opts.Alpha * float64(fmax)
		n := 0
		for _, l := range cls {
			if float64(s.propFreq[l.v()]) > threshold {
				n++
			}
		}
		ci.Frequency = n
	}
	return s.opts.Policy.Score(ci)
}
