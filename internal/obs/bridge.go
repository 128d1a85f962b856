package obs

// MetricsTracer bridges the solver's trace stream into a Registry: the
// cumulative counters carried by window/restart/reduce/solve_end events are
// differenced into monotonic registry counters, and the window-local
// rollups (props/sec, mean glue, trail depth) land in gauges. One
// MetricsTracer instruments one solver at a time — the delta state assumes
// a single monotonically counting source.
type MetricsTracer struct {
	last Event // previous cumulative snapshot

	conflicts, decisions, propagations *Counter
	restarts, reductions               *Counter
	learned, deleted                   *Counter
	gcCompactions, gcLits, gcBytes     *Counter
	solves                             func(status string) *Counter
	pps, meanGlue, trailDepth          *Gauge
	liveLearned, arenaWords            *Gauge
	vars, clauses                      *Gauge
	windowConflicts                    *Gauge
}

// NewMetricsTracer returns a Tracer that records solver search progress
// into r under the neuroselect_solver_* namespace.
func NewMetricsTracer(r *Registry) *MetricsTracer {
	c := func(name, help string) *Counter { return r.Counter(name, help, nil) }
	g := func(name, help string) *Gauge { return r.Gauge(name, help, nil) }
	return &MetricsTracer{
		conflicts:     c("neuroselect_solver_conflicts_total", "Conflicts found by the CDCL search."),
		decisions:     c("neuroselect_solver_decisions_total", "Decisions made by the CDCL search."),
		propagations:  c("neuroselect_solver_propagations_total", "BCP assignments made by the CDCL search."),
		restarts:      c("neuroselect_solver_restarts_total", "Luby restarts."),
		reductions:    c("neuroselect_solver_reductions_total", "Learned-clause database reductions."),
		learned:       c("neuroselect_solver_learned_total", "Learned clauses added."),
		deleted:       c("neuroselect_solver_deleted_total", "Learned clauses deleted by reduction."),
		gcCompactions: c("neuroselect_solver_gc_compactions_total", "Arena GC compaction passes."),
		gcLits:        c("neuroselect_solver_gc_literals_reclaimed_total", "Literal words reclaimed by arena GC."),
		gcBytes:       c("neuroselect_solver_gc_bytes_moved_total", "Bytes slid during arena GC compaction."),
		solves: func(status string) *Counter {
			return r.Counter("neuroselect_solver_solves_total", "Completed solve calls by status.", Labels{"status": status})
		},
		pps:             g("neuroselect_solver_props_per_sec", "Propagation rate over the last conflict window."),
		meanGlue:        g("neuroselect_solver_mean_glue", "Mean glue (LBD) of clauses learned in the last conflict window."),
		trailDepth:      g("neuroselect_solver_trail_depth", "Trail depth at the last conflict-window boundary."),
		liveLearned:     g("neuroselect_solver_live_learned", "Live learned clauses."),
		arenaWords:      g("neuroselect_solver_arena_words", "Clause arena size in 32-bit words."),
		vars:            g("neuroselect_solver_variables", "Variables of the instance being solved."),
		clauses:         g("neuroselect_solver_clauses", "Problem clauses of the instance being solved."),
		windowConflicts: g("neuroselect_solver_window_conflicts", "Conflicts in the last rollup window."),
	}
}

// Trace implements Tracer.
func (t *MetricsTracer) Trace(ev *Event) {
	switch ev.Type {
	case EventSolveStart:
		t.vars.Set(float64(ev.Vars))
		t.clauses.Set(float64(ev.Clauses))
		t.last = Event{}
		return
	case EventPolicy:
		return
	}
	// window / restart / reduce / solve_end all carry the cumulative
	// counter snapshot; difference against the previous one.
	t.conflicts.Add(ev.Conflicts - t.last.Conflicts)
	t.decisions.Add(ev.Decisions - t.last.Decisions)
	t.propagations.Add(ev.Propagations - t.last.Propagations)
	t.restarts.Add(ev.Restarts - t.last.Restarts)
	t.reductions.Add(ev.Reductions - t.last.Reductions)
	t.learned.Add(ev.Learned - t.last.Learned)
	t.deleted.Add(ev.Deleted - t.last.Deleted)
	t.gcCompactions.Add(ev.GCCompactions - t.last.GCCompactions)
	t.gcLits.Add(ev.GCLitsReclaimed - t.last.GCLitsReclaimed)
	t.gcBytes.Add(ev.GCBytesMoved - t.last.GCBytesMoved)
	t.last = *ev
	t.liveLearned.Set(float64(ev.LiveLearned))
	t.arenaWords.Set(float64(ev.ArenaWords))
	switch ev.Type {
	case EventWindow:
		t.pps.Set(ev.PropsPerSec)
		t.meanGlue.Set(ev.MeanGlue)
		t.trailDepth.Set(float64(ev.TrailDepth))
		t.windowConflicts.Set(float64(ev.WindowConflicts))
	case EventSolveEnd:
		t.solves(ev.Status).Inc()
	}
}
