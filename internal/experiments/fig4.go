package experiments

import (
	"fmt"
	"strings"
	"time"
)

// ScatterPoint is one instance in a Figure 4 / Figure 7(a) scatter:
// per-policy cost with the paper's convention that timeouts sit on the
// budget boundary.
type ScatterPoint struct {
	Name string
	// X is the default-policy cost, Y the comparison system's cost
	// (propagations, the deterministic analogue of seconds).
	X, Y float64
	// XTime, YTime are the wall-clock durations.
	XTime, YTime time.Duration
	// XSolved, YSolved report completion within budget.
	XSolved, YSolved bool
}

// ScatterResult summarizes a two-system comparison.
type ScatterResult struct {
	Title  string
	Points []ScatterPoint
	// Below counts instances strictly below the diagonal (the comparison
	// system wins), Above strictly above, On the ties.
	Below, Above, On int
	// MeanRelGain is the mean of (X−Y)/X over instances solved by both.
	MeanRelGain float64
}

// Fig4 reproduces Figure 4 from the labeling pass's measurements: to label
// an instance (§5.1) the corpus solved it once under the default and once
// under the frequency-guided deletion policy, and those two solves are its
// scatter point. Instances unsolved by both policies are excluded, as in
// the paper.
func (r *Runner) Fig4() (ScatterResult, error) {
	c, err := r.Corpus()
	if err != nil {
		return ScatterResult{}, err
	}
	res := ScatterResult{Title: "Figure 4 — Kissat default vs. frequency-guided deletion"}
	for _, it := range append(c.All(), c.Test.Items...) {
		if !it.SolvedDefault && !it.SolvedFrequency {
			continue // the paper drops instances unsolved by both
		}
		res.Points = append(res.Points, ScatterPoint{
			Name: it.Inst.Name,
			X:    float64(it.PropsDefault), Y: float64(it.PropsFrequency),
			XTime:   r.cellDuration(it.WallDefault, it.PropsDefault),
			YTime:   r.cellDuration(it.WallFrequency, it.PropsFrequency),
			XSolved: it.SolvedDefault, YSolved: it.SolvedFrequency,
		})
	}
	res.finish()
	return res, nil
}

func (s *ScatterResult) finish() {
	var gainSum float64
	var gainN int
	for _, p := range s.Points {
		switch {
		case p.Y < p.X:
			s.Below++
		case p.Y > p.X:
			s.Above++
		default:
			s.On++
		}
		if p.XSolved && p.YSolved && p.X > 0 {
			gainSum += (p.X - p.Y) / p.X
			gainN++
		}
	}
	if gainN > 0 {
		s.MeanRelGain = gainSum / float64(gainN)
	}
}

// Render prints the scatter as a summary plus a log-log ASCII plot.
func (s ScatterResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", s.Title)
	fmt.Fprintf(&sb, "  instances: %d  below diagonal (new wins): %d  above: %d  ties: %d\n",
		len(s.Points), s.Below, s.Above, s.On)
	fmt.Fprintf(&sb, "  mean relative gain of Y over X: %+.2f%%\n", 100*s.MeanRelGain)
	sb.WriteString(renderScatterASCII(s.Points, 56, 20))
	return sb.String()
}

// renderScatterASCII draws a log-scaled scatter with the diagonal marked,
// the textual analogue of the paper's runtime scatter figures.
func renderScatterASCII(points []ScatterPoint, w, h int) string {
	if len(points) == 0 {
		return "  (no points)\n"
	}
	lo, hi := points[0].X, points[0].X
	for _, p := range points {
		for _, v := range []float64{p.X, p.Y} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	scale := func(v float64) int {
		if v < 1 {
			v = 1
		}
		t := (log(v) - log(lo)) / (log(hi) - log(lo))
		i := int(t * float64(w-1))
		if i < 0 {
			i = 0
		}
		if i >= w {
			i = w - 1
		}
		return i
	}
	// Diagonal.
	for x := 0; x < w; x++ {
		y := x * (h - 1) / (w - 1)
		grid[h-1-y][x] = '.'
	}
	for _, p := range points {
		x := scale(p.X)
		y := scale(p.Y) * (h - 1) / (w - 1)
		grid[h-1-y][x] = '*'
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  Y=frequency policy (log)  ['*' instance, '.' diagonal]\n")
	for _, row := range grid {
		sb.WriteString("  |")
		sb.Write(row)
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "  +%s X=default policy (log), range [%.0f, %.0f] propagations\n",
		strings.Repeat("-", w), lo, hi)
	return sb.String()
}

func log(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return mathLog(v)
}
