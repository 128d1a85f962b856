package portfolio

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"neuroselect/internal/faultpoint"
	"neuroselect/internal/gen"
	"neuroselect/internal/solver"
)

// raceConfig is ext-selectors' two-policy race: worker 0 on the default
// policy, worker 1 on the frequency policy, both on the
// experiment-standard options, with no clause exchange. Its workers fail
// at the portfolio's worker fault site like any other.
func raceConfig(maxConflicts int64) Config {
	return Config{Workers: 2, Ensemble: 2, NoExchange: true, NoDiversify: true, MaxConflicts: maxConflicts}
}

func TestRaceNoGoroutineLeak(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	baseline := runtime.NumGoroutine()

	// Decisive-answer exit.
	if _, err := SolveParallel(gen.NQueens(6).F, raceConfig(100000)); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)

	// Both-budgets-exhausted exit.
	rep, err := SolveParallel(gen.Pigeonhole(9).F, raceConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unknown || rep.WinnerIndex != -1 {
		t.Fatalf("tiny budget should exhaust undecided, got %v winner=%d",
			rep.Result.Status, rep.WinnerIndex)
	}
	waitForGoroutines(t, baseline)

	// Error exit: both workers fail at the fault point.
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{Err: errors.New("worker down")})
	if _, err := SolveParallel(gen.NQueens(6).F, raceConfig(100000)); err == nil {
		t.Fatal("all-workers-failed race must return an error")
	}
	faultpoint.Reset()
	waitForGoroutines(t, baseline)

	// Cancellation exit.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan ParallelReport, 1)
	go func() {
		r, _ := SolveParallelContext(ctx, gen.Pigeonhole(10).F, raceConfig(0)) // effectively unbounded
		done <- r
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.Result.Status != solver.Unknown {
			t.Fatalf("canceled race must be Unknown, got %v", r.Result.Status)
		}
		if !errors.Is(r.Result.Stop, solver.ErrCanceled) {
			t.Fatalf("stop cause = %v, want ErrCanceled", r.Result.Stop)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled race did not return: cancellation latency unbounded")
	}
	waitForGoroutines(t, baseline)
}

func TestRaceWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{PanicValue: "worker crashed", Times: 1})
	inst := gen.NQueens(6)
	rep, err := SolveParallel(inst.F, raceConfig(100000))
	if err != nil {
		t.Fatalf("race with one surviving worker must not fail: %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want 1 recorded worker failure, got %v", rep.Failures)
	}
	if rep.Result.Status != solver.Sat || !rep.Result.Model.Satisfies(inst.F) {
		t.Fatalf("survivor must decide the instance, got %v", rep.Result.Status)
	}
}

func TestRaceAllWorkersPanicIsError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{PanicValue: "worker crashed"})
	rep, err := SolveParallel(gen.NQueens(6).F, raceConfig(100000))
	if err == nil {
		t.Fatal("race with no surviving worker must return an error")
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("want both failures recorded, got %v", rep.Failures)
	}
}

func TestChooseFallsBackOnInferencePanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{PanicValue: "NaN in attention weights"})
	m := freshModel()
	m.Threshold = 0 // would always pick frequency if inference ran
	ch := NewSelector(m).Choose(gen.RandomKSAT(20, 80, 3, 1).F)
	if ch.Policy.Name() != "default" {
		t.Fatalf("panicking inference must fall back to default, got %s", ch.Policy.Name())
	}
	if ch.Fallback != FallbackPanic {
		t.Fatalf("fallback reason = %q, want %q", ch.Fallback, FallbackPanic)
	}
	if ch.Err == nil || ch.Prob >= 0 {
		t.Fatalf("fallback choice must carry the error and a negative prob: err=%v prob=%v", ch.Err, ch.Prob)
	}
}

// TestSolveCompletesDespiteInferencePanic solves a formula that reaches
// a reduction, so the deferred choice calls the panicking model.
func TestSolveCompletesDespiteInferencePanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{PanicValue: "model file corrupted"})
	sel := NewSelector(freshModel())
	inst := gen.RandomKSAT(80, 336, 3, 2)
	rep, err := sel.SolveContext(context.Background(), inst.F, 100000)
	if err != nil {
		t.Fatalf("SolveContext must complete normally under inference fallback: %v", err)
	}
	if rep.Choice.Fallback != FallbackPanic {
		t.Fatalf("fallback = %q, want %q", rep.Choice.Fallback, FallbackPanic)
	}
	if rep.Result.Status != solver.Sat || !rep.Result.Model.Satisfies(inst.F) {
		t.Fatalf("fallback solve must still decide the instance, got %v", rep.Result.Status)
	}
}

func TestChooseFallsBackOnInferenceError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("weights unavailable")})
	sel := NewSelector(freshModel())
	ch := sel.Choose(gen.RandomKSAT(20, 80, 3, 3).F)
	if ch.Fallback != FallbackError || ch.Policy.Name() != "default" {
		t.Fatalf("erroring inference must fall back: fallback=%q policy=%s", ch.Fallback, ch.Policy.Name())
	}
}

func TestSelectorSolveContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sel := NewSelector(freshModel())
	rep, err := sel.SolveContext(ctx, gen.Pigeonhole(9).F, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unknown || !errors.Is(rep.Result.Stop, solver.ErrCanceled) {
		t.Fatalf("status=%v stop=%v, want Unknown/ErrCanceled", rep.Result.Status, rep.Result.Stop)
	}
}
