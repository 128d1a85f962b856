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

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (or a small tolerance above it, for runtime bookkeeping
// goroutines), failing after a timeout. Worker goroutines send their
// outcome before exiting, so a short settle window is expected.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelNoGoroutineLeak drives the free-running portfolio through
// every exit path — decisive answer, exhausted budgets, all workers
// failed, cancellation — and checks the goroutine count returns to
// baseline after each. Combined with -race (scripts/check.sh runs this
// package under the detector) this is the drain guarantee: export queues
// never block an exiting worker and the first winner's interrupt reaches
// every loser.
func TestParallelNoGoroutineLeak(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	baseline := runtime.NumGoroutine()

	// Decisive-answer exit: the winner interrupts the losers.
	rep, err := SolveParallel(gen.NQueens(8).F, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Sat {
		t.Fatalf("got %v, want SAT", rep.Result.Status)
	}
	waitForGoroutines(t, baseline)

	// All-budgets-exhausted exit.
	rep, err = SolveParallel(gen.Pigeonhole(9).F, Config{Workers: 4, MaxConflicts: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unknown || rep.WinnerIndex != -1 {
		t.Fatalf("tiny budget should exhaust undecided, got %v winner=%d",
			rep.Result.Status, rep.WinnerIndex)
	}
	waitForGoroutines(t, baseline)

	// Error exit: every worker fails at the fault point.
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{Err: errors.New("worker down")})
	if _, err := SolveParallel(gen.NQueens(8).F, Config{Workers: 4}); err == nil {
		t.Fatal("all-workers-failed portfolio must return an error")
	}
	faultpoint.Reset()
	waitForGoroutines(t, baseline)

	// Cancellation exit: all workers stop within bounded propagations.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan ParallelReport, 1)
	go func() {
		r, _ := SolveParallelContext(ctx, gen.Pigeonhole(10).F, Config{Workers: 4})
		done <- r
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.Result.Status != solver.Unknown {
			t.Fatalf("canceled portfolio must be Unknown, got %v", r.Result.Status)
		}
		if !errors.Is(r.Result.Stop, solver.ErrCanceled) {
			t.Fatalf("stop cause = %v, want ErrCanceled", r.Result.Stop)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled portfolio did not return: cancellation latency unbounded")
	}
	waitForGoroutines(t, baseline)
}

// TestParallelDeadlineStopsWorkers checks the timeout path: a context
// deadline surfaces as ErrDeadline and no goroutine outlives the call.
func TestParallelDeadlineStopsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	rep, err := SolveParallelContext(ctx, gen.Pigeonhole(10).F, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unknown {
		t.Fatalf("timed-out portfolio must be Unknown, got %v", rep.Result.Status)
	}
	if !errors.Is(rep.Result.Stop, solver.ErrDeadline) {
		t.Fatalf("stop cause = %v, want ErrDeadline", rep.Result.Stop)
	}
	waitForGoroutines(t, baseline)
}

// TestParallelWorkerPanicContained pins the blast radius of a crashing
// free-running worker: one failure recorded, survivors still decide.
func TestParallelWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{PanicValue: "worker crashed", Times: 1})
	inst := gen.NQueens(8)
	rep, err := SolveParallel(inst.F, Config{Workers: 4})
	if err != nil {
		t.Fatalf("portfolio with surviving workers must not fail: %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want 1 recorded worker failure, got %v", rep.Failures)
	}
	if rep.Result.Status != solver.Sat || !rep.Result.Model.Satisfies(inst.F) {
		t.Fatalf("survivors must decide the instance, got %v", rep.Result.Status)
	}
}

// TestParallelExportPanicContained crashes a worker from inside the
// clause-exchange export hook — the panic site is mid-search, after the
// first learned clause — and checks the portfolio carries on.
func TestParallelExportPanicContained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioExport, faultpoint.Fault{PanicValue: "export path wedged", Times: 1})
	rep, err := SolveParallel(gen.Pigeonhole(7).F, Config{Workers: 4})
	if err != nil {
		t.Fatalf("portfolio with surviving workers must not fail: %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want 1 recorded worker failure, got %v", rep.Failures)
	}
	if rep.Result.Status != solver.Unsat {
		t.Fatalf("survivors must decide UNSAT, got %v", rep.Result.Status)
	}
}

// TestParallelImportErrorDegrades checks the degraded-exchange contract: a
// failing import drain drops batches but never the solve — the answer
// stays correct with zero clauses installed.
func TestParallelImportErrorDegrades(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioImport, faultpoint.Fault{Err: errors.New("import path down")})
	rep, err := SolveParallel(gen.Pigeonhole(7).F, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unsat {
		t.Fatalf("degraded exchange must still decide UNSAT, got %v", rep.Result.Status)
	}
	if rep.Result.Stats.Imported != 0 {
		t.Fatalf("failing import drain must install nothing, got %d", rep.Result.Stats.Imported)
	}
}

// TestLockstepWorkerPanicContained pins deterministic-mode containment:
// sweep's cell recovery turns a worker panic into a recorded death and the
// surviving ensemble still decides.
func TestLockstepWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{PanicValue: "worker crashed", Times: 1})
	rep, err := SolveParallel(gen.Pigeonhole(7).F, Config{Deterministic: true, Workers: 2})
	if err != nil {
		t.Fatalf("lockstep portfolio with survivors must not fail: %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want 1 recorded worker failure, got %v", rep.Failures)
	}
	if rep.Result.Status != solver.Unsat {
		t.Fatalf("survivors must decide UNSAT, got %v", rep.Result.Status)
	}
}

// TestLockstepAllWorkersFailIsError kills the whole ensemble and checks
// the error path records every death.
func TestLockstepAllWorkersFailIsError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.PortfolioWorker, faultpoint.Fault{PanicValue: "worker crashed"})
	rep, err := SolveParallel(gen.Pigeonhole(7).F, Config{Deterministic: true, Workers: 2})
	if err == nil {
		t.Fatal("all-workers-failed lockstep portfolio must return an error")
	}
	if len(rep.Failures) != DefaultEnsemble {
		t.Fatalf("want %d recorded failures, got %v", DefaultEnsemble, rep.Failures)
	}
}

// TestLockstepCancellation cancels a deterministic solve mid-round: the
// coordinator must return promptly with the cancellation cause (this exit
// path is documented as outside the byte-identical guarantee).
func TestLockstepCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan ParallelReport, 1)
	go func() {
		r, _ := SolveParallelContext(ctx, gen.Pigeonhole(10).F, Config{Deterministic: true, Workers: 2})
		done <- r
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.Result.Status != solver.Unknown {
			t.Fatalf("canceled lockstep solve must be Unknown, got %v", r.Result.Status)
		}
		if !errors.Is(r.Result.Stop, solver.ErrCanceled) {
			t.Fatalf("stop cause = %v, want ErrCanceled", r.Result.Stop)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled lockstep solve did not return")
	}
	waitForGoroutines(t, baseline)
}
