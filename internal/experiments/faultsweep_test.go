package experiments

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
)

// waitGoroutines fails the test if the goroutine count has not returned to
// its pre-sweep baseline — the drain guarantee under injected faults.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak after fault sweep: %d before, %d after", before, runtime.NumGoroutine())
}

// sweepGauge reads one of the most recent sweep's gauges off the runner's
// registry.
func sweepGauge(r *Runner, name string) int64 {
	return int64(r.Obs.Gauge("neuroselect_sweep_"+name, "", nil).Value())
}

// TestFaultSweepSerialIdentifiesInjectedCells pins down exactly which cells
// an armed experiments.instance fault hits: with one worker, cells are
// pulled in index order, so Skip/Times windows map to known instances.
// Cells 0..2n-1 alternate kissat (even) / neuroselect (odd) per instance;
// Skip:3 Times:2 fires on cells 3 and 4 — instance 1's neuroselect half
// and instance 2's kissat half.
func TestFaultSweepSerialIdentifiesInjectedCells(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ExperimentInstance,
		faultpoint.Fault{Err: errors.New("injected"), Skip: 3, Times: 2})
	r := quickRunner()
	r.Workers = 1
	// Build corpus and selector before the sweep so the armed site only
	// sees Fig7 cells.
	c, err := r.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Selector(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Fig7()
	if err != nil {
		t.Fatalf("injected cell faults must not abort the sweep: %v", err)
	}
	want := []string{c.Test.Items[1].Inst.Name, c.Test.Items[2].Inst.Name}
	if len(res.Failures) != len(want) {
		t.Fatalf("want failure rows for %v, got %v", want, res.Failures)
	}
	for i, name := range want {
		if res.Failures[i].Name != name {
			t.Fatalf("failure row %d: want instance %q, got %+v", i, name, res.Failures[i])
		}
	}
	// All other instances completed.
	if got, want := len(res.InferenceMS), r.Scale.Corpus.TestSize-2; got != want {
		t.Fatalf("want %d surviving instances, got %d", want, got)
	}
}

// TestFaultSweepParallelContainsInjectedCells arms error and panic faults
// mid-sweep with four workers: exactly the injected number of cells fail
// (whichever workers draw them), every other cell completes, the counters
// agree with the outcome, and no goroutines leak.
func TestFaultSweepParallelContainsInjectedCells(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	r := quickRunner()
	r.Workers = 4
	r.Obs = obs.NewRegistry()
	c, err := r.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Selector(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const injected = 3
	faultpoint.Arm(faultpoint.ExperimentInstance,
		faultpoint.Fault{PanicValue: "injected corruption", Skip: 1, Times: injected})
	res, err := r.Fig7()
	if err != nil {
		t.Fatalf("injected cell faults must not abort the sweep: %v", err)
	}
	totalCells := len(c.Test.Items) * 2
	if got := sweepGauge(r, "failed"); got != injected {
		t.Fatalf("counters: failed=%d, want %d", got, injected)
	}
	if got := sweepGauge(r, "finished"); got != int64(totalCells-injected) {
		t.Fatalf("counters: finished=%d, want %d", got, totalCells-injected)
	}
	if got := sweepGauge(r, "started"); got != int64(totalCells) {
		t.Fatalf("counters: started=%d, want %d", got, totalCells)
	}
	if got := sweepGauge(r, "queue_depth"); got != 0 {
		t.Fatalf("counters: queue=%d after drain", got)
	}
	// Two injected cells can share an instance, so rows ∈ [ceil(3/2), 3].
	if len(res.Failures) < 2 || len(res.Failures) > injected {
		t.Fatalf("want 2..%d failure rows, got %v", injected, res.Failures)
	}
	for _, f := range res.Failures {
		if f.Name == "" || f.Err == "" {
			t.Fatalf("failure row must identify instance and cause: %+v", f)
		}
	}
	if got, want := len(res.InferenceMS), r.Scale.Corpus.TestSize-len(res.Failures); got != want {
		t.Fatalf("want %d surviving instances, got %d", want, got)
	}
	waitGoroutines(t, before)
}

// TestFaultSweepReduceEscalation arms the solver.reduce site: the injected
// reduce error escalates to a panic inside the solver, SolveContext
// contains it, and the sweep records exactly one failure row while the
// clause-database reduction path is provably exercised.
func TestFaultSweepReduceEscalation(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	r := quickRunner()
	r.Workers = 4
	r.Obs = obs.NewRegistry()
	if _, err := r.Corpus(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Selector(); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverReduce,
		faultpoint.Fault{Err: errors.New("reduce invariant"), Times: 1})
	res, err := r.Fig7()
	if err != nil {
		t.Fatalf("a contained reduce panic must not abort the sweep: %v", err)
	}
	if faultpoint.Hits(faultpoint.SolverReduce) == 0 {
		t.Fatal("no sweep cell reached the reduce step; the fault never armed anything")
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want exactly 1 failure row from the reduce fault, got %v", res.Failures)
	}
	if got := sweepGauge(r, "failed"); got != 1 {
		t.Fatalf("counters: failed=%d, want 1", got)
	}
}
