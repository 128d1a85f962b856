package experiments

import (
	"errors"
	"strings"
	"testing"

	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/solver"
)

func TestFig7IsolatesFailingInstance(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	// Exactly one sweep cell (whichever worker draws the second hit) fails
	// at the fault point; the run must record its instance as a failure
	// row and produce the figure and table anyway.
	faultpoint.Arm(faultpoint.ExperimentInstance,
		faultpoint.Fault{Err: errors.New("malformed instance"), Skip: 1, Times: 1})
	r := quickRunner()
	res, err := r.Fig7()
	if err != nil {
		t.Fatalf("a single bad instance must not abort the run: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want exactly 1 failure row, got %v", res.Failures)
	}
	if res.Failures[0].Name == "" || res.Failures[0].Err == "" {
		t.Fatalf("failure row must identify the instance and cause: %+v", res.Failures[0])
	}
	if res.Table3.Kissat.Failed != 1 || res.Table3.NeuroSelect.Failed != 1 {
		t.Fatalf("summaries must count the failed instance: %+v", res.Table3)
	}
	rendered := res.Table3.Render()
	if !strings.Contains(rendered, "failure:") {
		t.Fatalf("Table 3 must render the failure row:\n%s", rendered)
	}
	if !strings.Contains(res.Render(), "failed instance") {
		t.Fatal("Fig 7 must render the failure row")
	}
	// All remaining instances were processed.
	want := r.Scale.Corpus.TestSize - 1
	if got := len(res.InferenceMS); got != want {
		t.Fatalf("want %d surviving instances, got %d", want, got)
	}
}

func TestFig7IsolatesPanickingInstance(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ExperimentInstance,
		faultpoint.Fault{PanicValue: "corrupt clause database", Times: 1})
	r := quickRunner()
	res, err := r.Fig7()
	if err != nil {
		t.Fatalf("a panicking instance must not abort the run: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want 1 failure row, got %v", res.Failures)
	}
	if !strings.Contains(res.Failures[0].Err, "panic") {
		t.Fatalf("failure row must record the panic: %+v", res.Failures[0])
	}
}

func TestFig7WithSelectorInferencePanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	// Inference panics on every instance: the selector must degrade to
	// the default policy for the whole run and the table must still come
	// out, with every instance that reaches a reduction falling back (the
	// paper's degrade-to-Kissat behaviour). An instance decided before its
	// first reduction never needed a choice, so it is not a fallback.
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{PanicValue: "inference broken"})
	r := quickRunner()
	res, err := r.Fig7()
	if err != nil {
		t.Fatalf("inference failure must not abort the run: %v", err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("fallback is not a failure: %v", res.Failures)
	}
	if res.FreqChosen != 0 {
		t.Fatalf("with inference down no instance can be routed to frequency, got %d", res.FreqChosen)
	}
	c, err := r.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	reducing := 0
	for _, it := range c.Test.Items {
		res, err := solver.Solve(it.Inst.F, dataset.SolveOptions(deletion.DefaultPolicy{}, r.Scale.Corpus.Budget()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Reductions > 0 {
			reducing++
		}
	}
	if reducing == 0 || reducing == len(c.Test.Items) {
		t.Fatalf("%d of %d test instances reduce; the stratum must cover both", reducing, len(c.Test.Items))
	}
	if res.Fallbacks != reducing {
		t.Fatalf("want %d fallbacks, one per instance that reaches a reduction, got %d", reducing, res.Fallbacks)
	}
}
