package experiments

import (
	"encoding/json"
	"io"
)

// Report is the machine-readable form of a full experiment run, for
// archiving reproduction artifacts or diffing across solver versions.
type Report struct {
	Fig3       *Fig3Result       `json:"fig3,omitempty"`
	Fig5       *Fig5Result       `json:"fig5,omitempty"`
	Table1     *Table1Result     `json:"table1,omitempty"`
	Fig4       *ScatterResult    `json:"fig4,omitempty"`
	Table2     *Table2Result     `json:"table2,omitempty"`
	Fig7       *Fig7Result       `json:"fig7,omitempty"`
	PolicyPool *PolicyPoolResult `json:"ext_policies,omitempty"`
	Selectors  *SelectorsResult  `json:"ext_selectors,omitempty"`
	AlphaSweep *AlphaSweepResult `json:"ext_alpha,omitempty"`
	Scaling    *ScalingResult    `json:"ext_scaling,omitempty"`
}

// BuildReport executes the named experiments (all of them when only is
// empty) and returns the combined report.
func (r *Runner) BuildReport(only ...string) (*Report, error) {
	return r.run(only, func(renderer) {})
}

// RunAllJSON executes the named experiments (all of them when only is
// empty) and writes one JSON document.
func (r *Runner) RunAllJSON(w io.Writer, only ...string) error {
	rep, err := r.BuildReport(only...)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
