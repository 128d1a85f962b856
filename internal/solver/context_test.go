package solver

import (
	"context"
	"errors"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/faultpoint"
)

// chainFormula builds an implication chain x1 → x2 → ... → xn. Deciding
// x1 true triggers a single BCP run of n−1 propagations with no
// conflicts, which is exactly the shape that starved the old
// once-per-conflict interrupt poll.
func chainFormula(n int) *cnf.Formula {
	f := cnf.New(n)
	for i := 1; i < n; i++ {
		if err := f.AddClause(cnf.Lit(-i), cnf.Lit(i+1)); err != nil {
			panic(err)
		}
	}
	return f
}

// chainOptions makes the solver decide x1 positively so the whole chain
// propagates in one call.
func chainOptions() Options {
	return Options{InitialPhase: true}
}

// cancelAtPoll wraps a cancelable context and cancels it at the nth call
// of Done. The solver calls Done once per stop poll, so the cancellation
// lands at a known poll: in a conflict-free chain, mid-chain.
type cancelAtPoll struct {
	context.Context
	cancel   context.CancelFunc
	polls, n int
}

func (c *cancelAtPoll) Done() <-chan struct{} {
	c.polls++
	if c.polls == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

func TestInterruptLatencyBoundedInsideBCP(t *testing.T) {
	const n = 20000
	// Cancel at the second poll, i.e. mid-chain: a once-per-conflict poll
	// would never fire (the chain is conflict-free) and the solver would
	// run all n−1 propagations to fixpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := SolveContext(&cancelAtPoll{Context: ctx, cancel: cancel, n: 2}, chainFormula(n), chainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown {
		t.Fatalf("canceled solve must be Unknown, got %v", res.Status)
	}
	if !errors.Is(res.Stop, ErrCanceled) {
		t.Fatalf("stop cause = %v, want ErrCanceled", res.Stop)
	}
	if res.Stats.Propagations == 0 {
		t.Fatal("the stop signal was raised mid-chain; some propagations must have run")
	}
	// The poll fires within one stride of the signal being raised.
	if res.Stats.Propagations > 2*pollStride+16 {
		t.Fatalf("interrupt latency: %d propagations past the stop signal (stride %d)",
			res.Stats.Propagations, pollStride)
	}
}

func TestDeadlineStopsSlowPropagationChain(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	// Each stride poll sleeps 2 ms: a deterministic stand-in for a slow
	// propagation chain. With a 20 ms deadline the search must stop after
	// a bounded number of polls, i.e. a bounded number of propagations.
	const delay, deadline = 2 * time.Millisecond, 20 * time.Millisecond
	faultpoint.Arm(faultpoint.SolverPropagate, faultpoint.Fault{Delay: delay})
	const n = 100000
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := SolveContext(ctx, chainFormula(n), chainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown {
		t.Fatalf("deadline solve must be Unknown, got %v", res.Status)
	}
	if !errors.Is(res.Stop, ErrDeadline) {
		t.Fatalf("stop cause = %v, want ErrDeadline", res.Stop)
	}
	if errors.Is(res.Stop, ErrConflictBudget) || errors.Is(res.Stop, ErrPropagationBudget) {
		t.Fatalf("stop cause %v must not be a conflict/propagation budget", res.Stop)
	}
	// At most deadline/delay polls fit before the deadline, and the stop
	// lands within one stride after them.
	if limit := int64(deadline/delay+1) * pollStride; res.Stats.Propagations > limit {
		t.Fatalf("deadline latency: %d propagations, want at most %d (stride %d)",
			res.Stats.Propagations, limit, pollStride)
	}
}

func TestContextDeadlineReportsDeadline(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.SolverPropagate, faultpoint.Fault{Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := SolveContext(ctx, chainFormula(50000), chainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown || !errors.Is(res.Stop, ErrDeadline) {
		t.Fatalf("status=%v stop=%v, want Unknown/ErrDeadline", res.Status, res.Stop)
	}
}

func TestContextCancellationReportsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first poll must see it
	res, err := SolveContext(ctx, chainFormula(20000), chainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown || !errors.Is(res.Stop, ErrCanceled) {
		t.Fatalf("status=%v stop=%v, want Unknown/ErrCanceled", res.Status, res.Stop)
	}
	if !errors.Is(res.Stop, ErrBudget) {
		t.Fatal("stop causes must wrap ErrBudget")
	}
}

// TestContextStopEndsWithItsCall pins the latch discipline: a stop that
// one call's context raised does not carry into the next call on the same
// solver, for either entry point, whereas a spent conflict budget stays
// latched until ExtendBudget.
func TestContextStopEndsWithItsCall(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(chainFormula(5000), chainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.SolveContext(canceled); st != Unknown || !errors.Is(s.BudgetExhausted(), ErrCanceled) {
		t.Fatalf("canceled solve: %v/%v, want Unknown/ErrCanceled", st, s.BudgetExhausted())
	}
	if st := s.Solve(); st != Sat || s.BudgetExhausted() != nil {
		t.Fatalf("solve after a canceled one: %v/%v, want Sat/nil", st, s.BudgetExhausted())
	}
	if st, _ := s.SolveUnderAssumptionsContext(canceled, []cnf.Lit{-1}); st != Unknown || !errors.Is(s.BudgetExhausted(), ErrCanceled) {
		t.Fatalf("canceled assumption solve: %v/%v, want Unknown/ErrCanceled", st, s.BudgetExhausted())
	}
	if st, _ := s.SolveUnderAssumptions([]cnf.Lit{-1}); st != Sat {
		t.Fatalf("assumption solve after a canceled one: %v, want Sat", st)
	}

	b, err := New(hardFormulaForBudget(t), Options{MaxConflicts: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st := b.Solve(); st != Unknown || !errors.Is(b.BudgetExhausted(), ErrConflictBudget) {
			t.Fatalf("call %d: %v/%v, want Unknown/ErrConflictBudget", i, st, b.BudgetExhausted())
		}
	}
	if c := b.Stats().Conflicts; c != 5 {
		t.Fatalf("a latched budget must not search on: %d conflicts, want 5", c)
	}
	b.ExtendBudget(0, 0)
	if st := b.Solve(); st != Unsat {
		t.Fatalf("after ExtendBudget: %v, want Unsat", st)
	}
}

func TestUndisturbedSolveCompletes(t *testing.T) {
	// The chain with no stop sources must still solve to SAT.
	res, err := Solve(chainFormula(5000), chainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("want Sat, got %v", res.Status)
	}
}

func TestBudgetSentinelsIdentifyCause(t *testing.T) {
	f := hardFormulaForBudget(t)
	res, err := Solve(f, Options{MaxConflicts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown || !errors.Is(res.Stop, ErrConflictBudget) {
		t.Fatalf("status=%v stop=%v, want Unknown/ErrConflictBudget", res.Status, res.Stop)
	}
	res, err = Solve(f, Options{MaxPropagations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown || !errors.Is(res.Stop, ErrPropagationBudget) {
		t.Fatalf("status=%v stop=%v, want Unknown/ErrPropagationBudget", res.Status, res.Stop)
	}
}

// hardFormulaForBudget returns a pigeonhole-style formula hard enough to
// exhaust tiny budgets (5 pigeons, 4 holes, built inline to avoid an
// import cycle with internal/gen).
func hardFormulaForBudget(t *testing.T) *cnf.Formula {
	t.Helper()
	const pigeons, holes = 5, 4
	v := func(p, h int) cnf.Lit { return cnf.Lit(p*holes + h + 1) }
	f := cnf.New(pigeons * holes)
	for p := 0; p < pigeons; p++ {
		cl := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = v(p, h)
		}
		if err := f.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				if err := f.AddClause(-v(p1, h), -v(p2, h)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return f
}

func TestReducePanicContainedAsUnknown(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.SolverReduce, faultpoint.Fault{PanicValue: "reduce invariant violated"})
	f := hardFormulaForBudget(t)
	// ReduceFirst 10 guarantees the fault point is reached quickly.
	res, err := Solve(f, Options{ReduceFirst: 10, ReduceInc: 10})
	if err == nil {
		t.Fatal("contained panic must surface as an error")
	}
	if !errors.Is(err, ErrSolvePanic) {
		t.Fatalf("err = %v, want ErrSolvePanic", err)
	}
	if res.Status != Unknown {
		t.Fatalf("contained panic must yield Unknown, got %v", res.Status)
	}
	if !errors.Is(res.Stop, ErrSolvePanic) {
		t.Fatalf("res.Stop = %v, want ErrSolvePanic", res.Stop)
	}
	if faultpoint.Hits(faultpoint.SolverReduce) == 0 {
		t.Fatal("fault point was never reached")
	}
}

func TestInjectedPropagateErrorContained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.SolverPropagate, faultpoint.Fault{Err: errors.New("bcp fault"), Skip: 2})
	res, err := Solve(chainFormula(10000), chainOptions())
	if !errors.Is(err, ErrSolvePanic) {
		t.Fatalf("err = %v, want ErrSolvePanic", err)
	}
	if res.Status != Unknown {
		t.Fatalf("want Unknown, got %v", res.Status)
	}
}
