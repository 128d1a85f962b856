// Package metrics provides the classification and runtime statistics the
// paper reports — precision/recall/F1/accuracy (Table 2) and solved/median/
// average summaries (Table 3).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Confusion is a binary confusion matrix for label 1 = positive.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add records one (predicted, actual) pair.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded pairs.
func (c Confusion) Total() int { return c.TP + c.FP + c.FN + c.TN }

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when
// undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// String renders the four Table 2 metrics.
func (c Confusion) String() string {
	return fmt.Sprintf("precision=%.2f%% recall=%.2f%% F1=%.2f%% accuracy=%.2f%%",
		100*c.Precision(), 100*c.Recall(), 100*c.F1(), 100*c.Accuracy())
}

// Summary holds the Table 3 runtime statistics of one solver configuration
// over a benchmark set. Values carries the per-instance measure (the
// reproduction's deterministic analogue of seconds) for solved instances
// only.
type Summary struct {
	Solved  int
	Timeout int
	// Failed counts instances whose solve failed outright (contained
	// panic, malformed input) rather than timing out; like timeouts they
	// are excluded from the median and average.
	Failed  int
	Median  float64
	Average float64
}

// Total returns the number of instances the summary accounts for,
// including timeouts and failures.
func (s Summary) Total() int { return s.Solved + s.Timeout + s.Failed }

// Summarize computes solved/median/average over per-instance measures;
// entries with solved=false count as timeouts and are excluded from the
// median and average, matching the paper's Table 3 convention.
func Summarize(values []float64, solved []bool) Summary {
	if len(values) != len(solved) {
		panic("metrics: values/solved length mismatch")
	}
	var s Summary
	var ok []float64
	for i, v := range values {
		if solved[i] {
			ok = append(ok, v)
			s.Solved++
		} else {
			s.Timeout++
		}
	}
	if len(ok) == 0 {
		return s
	}
	sort.Float64s(ok)
	s.Median = median(ok)
	total := 0.0
	for _, v := range ok {
		total += v
	}
	s.Average = total / float64(len(ok))
	return s
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Quantiles returns the q-quantiles (e.g. 0.25, 0.5, 0.75) of the values,
// used for the Figure 7(b) box plots.
func Quantiles(values []float64, qs ...float64) []float64 {
	if len(values) == 0 {
		return make([]float64, len(qs))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q <= 0 {
			out[i] = sorted[0]
			continue
		}
		if q >= 1 {
			out[i] = sorted[len(sorted)-1]
			continue
		}
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}

// RelativeImprovement returns (base−new)/base, or 0 when base is 0.
func RelativeImprovement(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base
}
