package solver

import (
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/obs"
)

// recordingTracer captures every event by value.
type recordingTracer struct{ events []obs.Event }

func (r *recordingTracer) Trace(ev *obs.Event) { r.events = append(r.events, *ev) }

// TestTracerSearchNeutral solves the golden suite with and without a tracer
// installed and demands identical status, stats, and per-variable
// propagation counts: tracing must observe the search, never steer it.
// Every entry point is covered: a plain solve, a solve with a Push frame
// open, and an assumption solve.
func TestTracerSearchNeutral(t *testing.T) {
	modes := []struct {
		name  string
		solve func(*Solver) Status
	}{
		{"plain", (*Solver).Solve},
		{"open-frame", func(s *Solver) Status { s.Push(); return s.Solve() }},
		{"assumptions", func(s *Solver) Status {
			st, _ := s.SolveUnderAssumptions([]cnf.Lit{1, -2})
			return st
		}},
	}
	for _, m := range modes {
		for _, in := range goldenInstances() {
			plain, err := New(in.F, goldenOptions(nil))
			if err != nil {
				t.Fatal(err)
			}
			tracedOpts := goldenOptions(nil)
			tracedOpts.Tracer = &recordingTracer{}
			tracedOpts.TraceWindow = 64
			traced, err := New(in.F, tracedOpts)
			if err != nil {
				t.Fatal(err)
			}
			stPlain, stTraced := m.solve(plain), m.solve(traced)
			if stPlain != stTraced {
				t.Fatalf("%s/%s: status %v (plain) vs %v (traced)", m.name, in.Name, stPlain, stTraced)
			}
			if plain.Stats() != traced.Stats() {
				t.Fatalf("%s/%s: stats diverge under tracing\nplain:  %+v\ntraced: %+v",
					m.name, in.Name, plain.Stats(), traced.Stats())
			}
			pf, tf := plain.PropagationFrequencies(), traced.PropagationFrequencies()
			for v := range pf {
				if pf[v] != tf[v] {
					t.Fatalf("%s/%s: propFreq[%d] = %d (plain) vs %d (traced)", m.name, in.Name, v, pf[v], tf[v])
				}
			}
		}
	}
}

// TestBroadcastStalledSubscriberNeutral is the streaming half of the
// neutrality contract: a broadcaster with a deliberately stalled
// subscriber (tiny queue, never read — the worst SSE client) fans out the
// trace stream while the golden suite solves. The search trajectory must
// be bit-identical to an untraced solve, the stall must surface as
// counted drops, and the ring must still hold the tail of the stream.
func TestBroadcastStalledSubscriberNeutral(t *testing.T) {
	var totalDropped int64
	for _, in := range goldenInstances() {
		plain, err := New(in.F, goldenOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		b := obs.NewBroadcaster(obs.BroadcastOpts{Ring: 32})
		stalled, _ := b.Subscribe(0, 1) // 1-slot queue, never read
		streamedOpts := goldenOptions(nil)
		streamedOpts.Tracer = b
		streamedOpts.TraceWindow = 64
		streamed, err := New(in.F, streamedOpts)
		if err != nil {
			t.Fatal(err)
		}
		stPlain, stStreamed := plain.Solve(), streamed.Solve()
		b.Close()
		if stPlain != stStreamed {
			t.Fatalf("%s: status %v (plain) vs %v (streamed)", in.Name, stPlain, stStreamed)
		}
		if plain.Stats() != streamed.Stats() {
			t.Fatalf("%s: stats diverge under streaming\nplain:    %+v\nstreamed: %+v",
				in.Name, plain.Stats(), streamed.Stats())
		}
		pf, sf := plain.PropagationFrequencies(), streamed.PropagationFrequencies()
		for v := range pf {
			if pf[v] != sf[v] {
				t.Fatalf("%s: propFreq[%d] = %d (plain) vs %d (streamed)", in.Name, v, pf[v], sf[v])
			}
		}
		// A stalled queue of one slot keeps exactly one event; every later
		// event must be dropped and accounted, never waited on.
		if emitted := b.LastSeq(); emitted > 1 {
			want := emitted - 1
			if got := stalled.Dropped(); got != want {
				t.Fatalf("%s: stalled subscriber dropped %d of %d events, want %d",
					in.Name, got, emitted, want)
			}
		}
		totalDropped += stalled.Dropped()
	}
	if totalDropped == 0 {
		t.Fatal("no events were dropped across the suite; the stall never engaged and the test is vacuous")
	}
}

// TestTraceEventStream checks the event stream against the final stats on a
// reduction-heavy instance: bracketing solve_start/solve_end, one restart
// event per recorded restart, one reduce event per reduction, cumulative
// counters that never decrease, and window rollups at the configured stride.
func TestTraceEventStream(t *testing.T) {
	inst := gen.Pigeonhole(7)
	rec := &recordingTracer{}
	opts := goldenOptions(nil)
	opts.Tracer = rec
	opts.TraceWindow = 128
	s, err := New(inst.F, opts)
	if err != nil {
		t.Fatal(err)
	}
	status := s.Solve()
	st := s.Stats()
	if status != Unsat {
		t.Fatalf("php-7 must be UNSAT, got %v", status)
	}
	if len(rec.events) < 3 {
		t.Fatalf("only %d events for a ~7k-conflict solve", len(rec.events))
	}

	first, last := rec.events[0], rec.events[len(rec.events)-1]
	if first.Type != obs.EventSolveStart {
		t.Errorf("first event %q, want solve_start", first.Type)
	}
	if first.Vars != inst.F.NumVars || first.Clauses != len(inst.F.Clauses) {
		t.Errorf("solve_start shape (%d vars, %d clauses), instance has (%d, %d)",
			first.Vars, first.Clauses, inst.F.NumVars, len(inst.F.Clauses))
	}
	if first.Policy == "" {
		t.Error("solve_start missing policy name")
	}
	if last.Type != obs.EventSolveEnd {
		t.Errorf("last event %q, want solve_end", last.Type)
	}
	if last.Status != status.String() {
		t.Errorf("solve_end status %q, want %q", last.Status, status)
	}

	counts := map[string]int64{}
	prev := obs.Event{}
	for i, ev := range rec.events {
		counts[ev.Type]++
		if ev.Type == obs.EventSolveStart {
			continue
		}
		// Cumulative counters are monotone along the stream.
		if ev.Conflicts < prev.Conflicts || ev.Propagations < prev.Propagations ||
			ev.Restarts < prev.Restarts || ev.Reductions < prev.Reductions ||
			ev.Learned < prev.Learned || ev.Deleted < prev.Deleted ||
			ev.GCCompactions < prev.GCCompactions || ev.TimeNS < prev.TimeNS {
			t.Fatalf("event %d (%s) regresses a cumulative counter: %+v after %+v",
				i, ev.Type, ev, prev)
		}
		prev = ev
		if ev.Type == obs.EventWindow && ev.WindowConflicts < opts.TraceWindow {
			t.Errorf("window closed after %d conflicts, stride is %d",
				ev.WindowConflicts, opts.TraceWindow)
		}
	}
	if counts[obs.EventRestart] != st.Restarts {
		t.Errorf("%d restart events, stats.Restarts = %d", counts[obs.EventRestart], st.Restarts)
	}
	if counts[obs.EventReduce] != st.Reductions {
		t.Errorf("%d reduce events, stats.Reductions = %d", counts[obs.EventReduce], st.Reductions)
	}
	if counts[obs.EventWindow] == 0 {
		t.Error("no window rollups emitted")
	}
	if max := st.Conflicts/opts.TraceWindow + 1; counts[obs.EventWindow] > max {
		t.Errorf("%d window events for %d conflicts at stride %d (max %d)",
			counts[obs.EventWindow], st.Conflicts, opts.TraceWindow, max)
	}

	// The final event carries the final cumulative counters.
	if last.Conflicts != st.Conflicts || last.Decisions != st.Decisions ||
		last.Propagations != st.Propagations || last.Restarts != st.Restarts ||
		last.Reductions != st.Reductions || last.Learned != st.Learned ||
		last.Deleted != st.Deleted || last.GCCompactions != st.GCCompactions ||
		last.GCLitsReclaimed != st.GCLitsReclaimed || last.GCBytesMoved != st.GCBytesMoved {
		t.Errorf("solve_end counters %+v do not match final stats %+v", last, st)
	}
}

// TestOpenFrameSolveTelemetry checks that a solve with a Push frame open
// reports the same telemetry a frame-free solve does: one restart event
// per counted restart and one window rollup per TraceWindow conflicts.
// (Open-frame solves used to run a separate search loop that emitted
// neither restarts nor windows.)
func TestOpenFrameSolveTelemetry(t *testing.T) {
	rec := &recordingTracer{}
	s, err := New(gen.Pigeonhole(7).F, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	s.Push()
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php-7 with an open frame = %v, want UNSAT", st)
	}
	st := s.Stats()
	if st.Restarts == 0 || st.Conflicts < 2*s.opts.TraceWindow {
		t.Fatalf("solve too short to exercise telemetry: %+v", st)
	}
	counts := map[string]int64{}
	for _, ev := range rec.events {
		counts[ev.Type]++
	}
	if counts[obs.EventRestart] != st.Restarts {
		t.Errorf("%d restart events, stats.Restarts = %d", counts[obs.EventRestart], st.Restarts)
	}
	if want := st.Conflicts / s.opts.TraceWindow; counts[obs.EventWindow] != want {
		t.Errorf("%d window events for %d conflicts at stride %d, want %d",
			counts[obs.EventWindow], st.Conflicts, s.opts.TraceWindow, want)
	}
}

// TestArenaGCStats checks the arena-GC satellite counters: php-7 under the
// golden reduce schedule runs ~22 reductions, and every reduction that
// deletes at least one clause ends in a compaction pass reclaiming the
// deleted clauses' literal words.
func TestArenaGCStats(t *testing.T) {
	s, err := New(gen.Pigeonhole(7).F, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Unsat {
		t.Fatal("php-7 must be UNSAT")
	}
	st := s.Stats()
	if st.Reductions == 0 {
		t.Fatal("schedule produced no reductions; test is vacuous")
	}
	if st.GCCompactions == 0 || st.GCCompactions > st.Reductions {
		t.Errorf("GCCompactions = %d, want in [1, Reductions=%d] (at most one pass per reduction)",
			st.GCCompactions, st.Reductions)
	}
	if st.GCLitsReclaimed == 0 {
		t.Error("GCLitsReclaimed = 0 despite deletions")
	}
	if st.Deleted > 0 && st.GCLitsReclaimed < st.Deleted {
		t.Errorf("GCLitsReclaimed = %d < %d deleted clauses (each has ≥1 literal)",
			st.GCLitsReclaimed, st.Deleted)
	}
	if st.GCBytesMoved == 0 {
		t.Error("GCBytesMoved = 0: compaction slid no surviving clause")
	}

	// An instance solved before the first reduction leaves all GC counters
	// zero — the counters record compactions, not solves.
	easy, err := New(gen.NQueens(8).F, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	easy.Solve()
	if est := easy.Stats(); est.Reductions == 0 &&
		(est.GCCompactions != 0 || est.GCLitsReclaimed != 0 || est.GCBytesMoved != 0) {
		t.Errorf("GC counters nonzero without a reduction: %+v", est)
	}
}
