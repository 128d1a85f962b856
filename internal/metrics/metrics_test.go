package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	c.Add(true, true)   // TP
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 || c.Total() != 5 {
		t.Fatalf("confusion = %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Fatalf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Fatalf("recall = %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Fatalf("f1 = %v", c.F1())
	}
	if math.Abs(c.Accuracy()-3.0/5) > 1e-12 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty confusion must be all-zero")
	}
	c.Add(false, false)
	if c.Accuracy() != 1 || c.F1() != 0 {
		t.Fatal("all-negative case")
	}
}

func TestF1Property(t *testing.T) {
	// F1 is always between min and max of precision/recall and within
	// [0, 1].
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn), TN: int(tn)}
		f1 := c.F1()
		if f1 < 0 || f1 > 1 {
			return false
		}
		p, r := c.Precision(), c.Recall()
		lo, hi := math.Min(p, r), math.Max(p, r)
		return f1 >= lo-1e-12 && f1 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	vals := []float64{10, 30, 20, 999}
	solved := []bool{true, true, true, false}
	s := Summarize(vals, solved)
	if s.Solved != 3 || s.Timeout != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Median != 20 || s.Average != 20 {
		t.Fatalf("median=%v average=%v", s.Median, s.Average)
	}
	// Even count → midpoint.
	s2 := Summarize([]float64{1, 2, 3, 4}, []bool{true, true, true, true})
	if s2.Median != 2.5 {
		t.Fatalf("even median = %v", s2.Median)
	}
	// Nothing solved.
	s3 := Summarize([]float64{5}, []bool{false})
	if s3.Solved != 0 || s3.Median != 0 || s3.Average != 0 {
		t.Fatalf("unsolved summary = %+v", s3)
	}
}

func TestSummaryFailedAccounting(t *testing.T) {
	s := Summarize([]float64{10, 20}, []bool{true, false})
	if s.Total() != 2 {
		t.Fatalf("total = %d, want 2", s.Total())
	}
	// Failures are recorded by the caller on top of the solve outcomes
	// (e.g. the experiments runner's isolated failure rows) and count
	// toward the total without perturbing the medians.
	s.Failed = 3
	if s.Total() != 5 {
		t.Fatalf("total with failures = %d, want 5", s.Total())
	}
	if s.Median != 10 || s.Average != 10 {
		t.Fatalf("failures must not perturb medians: %+v", s)
	}
}

func TestSummarizeMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize([]float64{1}, []bool{true, false})
}

func TestQuantiles(t *testing.T) {
	q := Quantiles([]float64{4, 1, 3, 2}, 0, 0.5, 1)
	if q[0] != 1 || q[2] != 4 {
		t.Fatalf("min/max = %v", q)
	}
	if q[1] != 2.5 {
		t.Fatalf("median = %v", q[1])
	}
	empty := Quantiles(nil, 0, 1)
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatal("empty quantiles")
	}
	single := Quantiles([]float64{7}, 0, 0.3, 1)
	for _, v := range single {
		if v != 7 {
			t.Fatalf("single-element quantiles = %v", single)
		}
	}
}

func TestQuantilesMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				vals[i] = 0
			}
		}
		q := Quantiles(vals, 0, 0.25, 0.5, 0.75, 1)
		for i := 1; i < len(q); i++ {
			if q[i] < q[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeImprovement(t *testing.T) {
	if RelativeImprovement(100, 94.2) < 0.057 || RelativeImprovement(100, 94.2) > 0.059 {
		t.Fatal("5.8% improvement")
	}
	if RelativeImprovement(0, 5) != 0 {
		t.Fatal("zero base")
	}
	if RelativeImprovement(100, 110) >= 0 {
		t.Fatal("regression must be negative")
	}
}
