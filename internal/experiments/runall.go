package experiments

import (
	"fmt"
	"io"
	"strings"
)

// renderer is one experiment's result, printable as a text report.
type renderer interface{ Render() string }

// steps lists every experiment in report order. A step runs its
// experiment, stores the result in the report and returns it for
// rendering, so text and JSON output share one table and one loop.
var steps = []struct {
	name string
	run  func(*Runner, *Report) (renderer, error)
}{
	{"fig3", func(r *Runner, p *Report) (renderer, error) { v, err := r.Fig3(); p.Fig3 = &v; return v, err }},
	{"fig5", func(r *Runner, p *Report) (renderer, error) { v, err := r.Fig5(); p.Fig5 = &v; return v, err }},
	{"table1", func(r *Runner, p *Report) (renderer, error) { v, err := r.Table1(); p.Table1 = &v; return v, err }},
	{"fig4", func(r *Runner, p *Report) (renderer, error) { v, err := r.Fig4(); p.Fig4 = &v; return v, err }},
	{"table2", func(r *Runner, p *Report) (renderer, error) { v, err := r.Table2(); p.Table2 = &v; return v, err }},
	{"fig7", func(r *Runner, p *Report) (renderer, error) { v, err := r.Fig7(); p.Fig7 = &v; return v, err }},
	{"ext-policies", func(r *Runner, p *Report) (renderer, error) {
		v, err := r.PolicyPool()
		p.PolicyPool = &v
		return v, err
	}},
	{"ext-selectors", func(r *Runner, p *Report) (renderer, error) { v, err := r.Selectors(); p.Selectors = &v; return v, err }},
	{"ext-alpha", func(r *Runner, p *Report) (renderer, error) {
		v, err := r.AlphaSweep()
		p.AlphaSweep = &v
		return v, err
	}},
	{"ext-scaling", func(r *Runner, p *Report) (renderer, error) { v, err := r.Scaling(); p.Scaling = &v; return v, err }},
}

// run executes, in table order, the experiments that only names (all of
// them when only is empty; table3 names fig7, whose run produces it),
// hands each result to emit, and returns the combined report. The
// heavyweight shared artifacts (corpus, trained model) are computed once
// across steps.
func (r *Runner) run(only []string, emit func(renderer)) (*Report, error) {
	want := func(name string) bool {
		for _, o := range only {
			if o == name || (o == "table3" && name == "fig7") {
				return true
			}
		}
		return len(only) == 0
	}
	var rep Report
	ran := false
	for _, s := range steps {
		if !want(s.name) {
			continue
		}
		// A canceled parent context (Ctrl-C, sweep deadline) stops between
		// steps too, not just inside a sweep.
		if err := r.baseContext().Err(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		ran = true
		v, err := s.run(r, &rep)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		emit(v)
	}
	if !ran {
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: fig3, fig4, fig5, table1, table2, fig7, table3, ext-policies, ext-selectors, ext-alpha, ext-scaling)", strings.Join(only, " "))
	}
	return &rep, nil
}

// RunAll executes the requested experiment (all of them when only is
// empty) and writes the rendered reports to w. The full run prints Table 3
// after Figure 7; -only table3 prints it alone.
func (r *Runner) RunAll(w io.Writer, only string) error {
	var names []string
	if only != "" {
		names = []string{only}
	}
	_, err := r.run(names, func(v renderer) {
		if only != "table3" {
			fmt.Fprintln(w, v.Render())
		}
		if f7, ok := v.(Fig7Result); ok && (only == "" || only == "table3") {
			fmt.Fprintln(w, f7.Table3.Render())
		}
	})
	return err
}
