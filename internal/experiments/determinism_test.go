package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// determinismScale is the smallest corpus that still exercises every
// aggregation path (train/test strata, both policies, the selector).
func determinismRunner(workers int) *Runner {
	s := QuickScale()
	s.Corpus.TrainStrata = 1
	s.Corpus.PerStratum = 3
	s.Corpus.TestSize = 4
	s.Corpus.MaxConflicts = 8000
	s.Train.Epochs = 1
	s.BaselineEpochs = 1
	r := NewRunner(s)
	r.Workers = workers
	r.Deterministic = true
	return r
}

// determinismExperiments is every experiment under the byte-identical
// guarantee — since ext-selectors' 2-way race runs as a lockstep portfolio
// under Runner.Deterministic, that is all of them, ext-selectors included.
var determinismExperiments = []string{
	"fig3", "fig5", "table1", "fig4", "table2", "fig7", "table3",
	"ext-policies", "ext-selectors", "ext-alpha", "ext-scaling",
}

// renderAll runs every guaranteed experiment and returns the concatenated
// rendered text plus the JSON encoding of a report subset.
func renderAll(t *testing.T, workers int) (string, string) {
	t.Helper()
	r := determinismRunner(workers)
	var text bytes.Buffer
	for _, name := range determinismExperiments {
		fmt.Fprintf(&text, "== %s ==\n", name)
		if err := r.RunAll(&text, name); err != nil {
			t.Fatalf("workers=%d %s: %v", workers, name, err)
		}
	}
	rep, err := r.BuildReport("fig4", "fig7", "ext-policies")
	if err != nil {
		t.Fatalf("workers=%d BuildReport: %v", workers, err)
	}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return text.String(), string(js)
}

// TestDeterministicAcrossWorkerCounts is the regression test for the sweep
// engine's core guarantee: the rendered tables and the JSON report are
// byte-identical whether the instance×policy matrix runs on one worker,
// four, or every CPU.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment pipeline three times")
	}
	refText, refJSON := renderAll(t, 1)
	if len(refText) == 0 || len(refJSON) == 0 {
		t.Fatal("empty reference output")
	}
	counts := []int{4, runtime.NumCPU()}
	for _, workers := range counts {
		text, js := renderAll(t, workers)
		if text != refText {
			t.Errorf("workers=%d: rendered text diverges from workers=1\n%s", workers, firstDiff(refText, text))
		}
		if js != refJSON {
			t.Errorf("workers=%d: JSON report diverges from workers=1\n%s", workers, firstDiff(refJSON, js))
		}
	}
}

// firstDiff locates the first byte where two outputs diverge, with context.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+80, i+80
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first difference at byte %d:\n  ref: %q\n  got: %q", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("lengths differ: ref=%d got=%d", len(a), len(b))
}
