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

// The race runs on the free-running portfolio, so its workers fail at the
// portfolio's worker fault site.

func TestRaceNoGoroutineLeak(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	baseline := runtime.NumGoroutine()

	// Decisive-answer exit.
	if _, err := Race(gen.NQueens(6).F, 100000); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)

	// Both-budgets-exhausted exit.
	rep, err := Race(gen.Pigeonhole(9).F, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unknown {
		t.Fatalf("tiny budget should exhaust, got %v", rep.Result.Status)
	}
	waitForGoroutines(t, baseline)

	// Error exit: both workers fail at the fault point.
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{Err: errors.New("worker down")})
	if _, err := Race(gen.NQueens(6).F, 100000); err == nil {
		t.Fatal("all-workers-failed race must return an error")
	}
	faultpoint.Reset()
	waitForGoroutines(t, baseline)

	// Cancellation exit.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan RaceReport, 1)
	go func() {
		r, _ := RaceContext(ctx, gen.Pigeonhole(10).F, 0) // effectively unbounded
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
	rep, err := Race(inst.F, 100000)
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
	rep, err := Race(gen.NQueens(6).F, 100000)
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

func TestSolveCompletesDespiteInferencePanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{PanicValue: "model file corrupted"})
	sel := NewSelector(freshModel())
	inst := gen.NQueens(6)
	rep, err := sel.Solve(inst.F, 100000)
	if err != nil {
		t.Fatalf("Solve must complete normally under inference fallback: %v", err)
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
