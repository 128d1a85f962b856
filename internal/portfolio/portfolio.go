// Package portfolio implements the NeuroSelect-Kissat flow of §5.4: a
// one-time model inference selects the clause-deletion policy for an
// instance, and the CDCL solver runs under the chosen policy. The choice
// waits for the search's first reduction, the only place a deletion
// policy acts (see Deferred). Inference time is accounted separately so
// the Figure 7(b) breakdown can be reproduced.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/solver"
)

// NodeCapDefault mirrors the paper's 400,000-node filter: instances whose
// graph exceeds the cap skip inference and use the default policy.
const NodeCapDefault = 400000

// overNodeCap reports whether f's graph exceeds NodeCapDefault, so that
// Choose skips the model for it.
func overNodeCap(f *cnf.Formula) bool { return f.NumVars+len(f.Clauses) > NodeCapDefault }

// Fallback reasons recorded in Choice.Fallback. An empty string means
// inference ran and its probability drove the selection.
const (
	// FallbackNodeCap: the instance exceeded the node cap, inference was
	// skipped by design.
	FallbackNodeCap = "node-cap"
	// FallbackPanic: inference panicked and was contained.
	FallbackPanic = "inference-panic"
	// FallbackError: inference failed with an error.
	FallbackError = "inference-error"
	// FallbackNoReduction: the choice was deferred to the solve's first
	// reduction and the solve ended before one ranked a learned clause, so
	// no policy could have changed its search and inference was skipped.
	FallbackNoReduction = "no-reduction"
)

// Selector chooses a deletion policy per instance using a trained
// NeuroSelect model, at the decision threshold the model carries.
type Selector struct {
	Model *core.Model
	// Obs, when non-nil, records every selection decision in
	// neuroselect_portfolio_choices_total{policy,fallback}, and the latency
	// of every model call in neuroselect_portfolio_inference_seconds.
	Obs *obs.Registry
}

// NewSelector wraps a trained model.
func NewSelector(m *core.Model) *Selector {
	return &Selector{Model: m}
}

// Choice records one policy-selection decision.
type Choice struct {
	Policy deletion.Policy
	// Prob is the model's probability for the frequency policy; negative
	// when inference was skipped or failed.
	Prob float64
	// Inference is the wall-clock cost of the one-time model call.
	Inference time.Duration
	// Fallback names why the default policy was chosen without a model
	// probability: FallbackNodeCap, FallbackPanic, FallbackError or
	// FallbackNoReduction. Empty when inference drove the selection.
	Fallback string
	// Err carries the contained inference failure behind a non-empty
	// Fallback (nil for a skip).
	Err error
}

// Event returns the choice as a policy trace event.
func (ch Choice) Event() *obs.Event {
	return &obs.Event{
		Type:        obs.EventPolicy,
		Policy:      ch.Policy.Name(),
		Prob:        ch.Prob,
		Fallback:    ch.Fallback,
		InferenceNS: ch.Inference.Nanoseconds(),
	}
}

// Choose runs the one-time inference and returns the selected policy: the
// frequency policy when the probability is at or above the model's
// threshold, the default policy otherwise. Inference failures never
// propagate: a panicking or erroring model call degrades to the default
// (Kissat) policy with the fallback reason recorded in the Choice.
func (s *Selector) Choose(f *cnf.Formula) Choice {
	if overNodeCap(f) {
		return s.skip(FallbackNodeCap)
	}
	start := time.Now()
	prob, err := s.infer(f)
	ch := Choice{Prob: prob, Inference: time.Since(start)}
	if s.Obs != nil {
		s.Obs.Histogram("neuroselect_portfolio_inference_seconds",
			"Wall-clock latency of the one-time model inference.",
			nil, nil).Observe(ch.Inference.Seconds())
	}
	if err != nil {
		ch.Policy = deletion.DefaultPolicy{}
		ch.Prob = -1
		ch.Err = err
		ch.Fallback = FallbackError
		if errors.Is(err, errInferencePanic) {
			ch.Fallback = FallbackPanic
		}
		return s.record(ch)
	}
	if prob >= s.Model.Threshold {
		ch.Policy = deletion.FrequencyPolicy{}
	} else {
		ch.Policy = deletion.DefaultPolicy{}
	}
	return s.record(ch)
}

// skip returns the default-policy choice made without calling the model,
// for the given fallback reason, and records it like every decision.
func (s *Selector) skip(fallback string) Choice {
	return s.record(Choice{Policy: deletion.DefaultPolicy{}, Prob: -1, Fallback: fallback})
}

// record counts one selection decision in the selector's registry (when
// set) and returns the choice unchanged.
func (s *Selector) record(ch Choice) Choice {
	if s.Obs != nil {
		fb := ch.Fallback
		if fb == "" {
			fb = "none"
		}
		s.Obs.Counter("neuroselect_portfolio_choices_total",
			"Policy-selection decisions by chosen policy and fallback reason.",
			obs.Labels{"policy": ch.Policy.Name(), "fallback": fb}).Inc()
	}
	return ch
}

// errInferencePanic marks inference failures that originated as panics.
var errInferencePanic = errors.New("portfolio: model inference panicked")

// infer runs the model call with panic containment.
func (s *Selector) infer(f *cnf.Formula) (prob float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errInferencePanic, r)
		}
	}()
	if err := faultpoint.Hit(faultpoint.ModelInference); err != nil {
		return 0, err
	}
	return s.Model.Predict(f), nil
}

// Deferred is the deletion policy of one solve, choosing when the search
// first needs a choice. The solver consults its policy only where a
// reduction ranks learned clauses, so the first NeedsFrequency or Score
// call chooses and every later one delegates to the pick: the search is
// the one an up-front choice would have run. A solve that ends before then
// runs no inference, and Result settles it as FallbackNoReduction. A
// Deferred serves one solve on one goroutine.
type Deferred struct {
	sel    *Selector
	f      *cnf.Formula
	tracer obs.Tracer
	ch     Choice // ch.Policy is nil until the choice is made
}

// Defer starts the deferred choice of one solve of f, made by s.Choose.
// The tracer, when non-nil, receives the choice as its policy event at
// the moment it is made.
func (s *Selector) Defer(f *cnf.Formula, tracer obs.Tracer) *Deferred {
	return &Deferred{sel: s, f: f, tracer: tracer}
}

// Name implements deletion.Policy: "auto" until the choice is made, the
// chosen policy's name after.
func (d *Deferred) Name() string {
	if d.ch.Policy == nil {
		return "auto"
	}
	return d.ch.Policy.Name()
}

// NeedsFrequency implements deletion.Policy for the chosen policy.
func (d *Deferred) NeedsFrequency() bool { return d.chosen().NeedsFrequency() }

// Score implements deletion.Policy for the chosen policy.
func (d *Deferred) Score(ci deletion.ClauseInfo) uint64 { return d.chosen().Score(ci) }

func (d *Deferred) chosen() deletion.Policy {
	if d.ch.Policy == nil {
		d.settle(d.sel.Choose(d.f))
	}
	return d.ch.Policy
}

func (d *Deferred) settle(ch Choice) {
	d.ch = ch
	if d.tracer != nil {
		d.tracer.Trace(ch.Event())
	}
}

// Result returns the choice once the solve is over, settling one the
// search never needed as FallbackNoReduction.
func (d *Deferred) Result() Choice {
	if d.ch.Policy == nil {
		d.settle(d.sel.skip(FallbackNoReduction))
	}
	return d.ch
}

// Report is the outcome of one adaptive solve.
type Report struct {
	Choice Choice
	Result solver.Result
	// SolveTime is the search's wall clock less Choice.Inference.
	SolveTime time.Duration
}

// SolveContext solves f under a Deferred choice with the experiment-
// standard options and the given conflict budget: cancellation and
// deadlines abort the search with Unknown (see solver.SolveContext). A
// contained solver panic is returned as both an error and an
// error-carrying Unknown report, so callers can either fail or record the
// instance and continue.
func (s *Selector) SolveContext(ctx context.Context, f *cnf.Formula, maxConflicts int64) (Report, error) {
	d := s.Defer(f, nil)
	start := time.Now()
	res, err := solver.SolveContext(ctx, f, dataset.SolveOptions(d, maxConflicts))
	ch := d.Result()
	return Report{Choice: ch, Result: res, SolveTime: time.Since(start) - ch.Inference}, err
}

// CalibrateThreshold grid-searches the decision threshold that maximizes
// total propagation savings on labeled data — the portfolio analogue of
// picking an operating point on the precision/recall curve. When no
// threshold yields positive savings it returns a threshold above 1
// ("never select"), so an uninformative model degrades gracefully to
// exactly Kissat's default behaviour.
func CalibrateThreshold(m *core.Model, items []dataset.Labeled) float64 {
	return CalibrateThresholdFunc(m.Predict, items)
}

// CalibrateThresholdFunc is CalibrateThreshold for an arbitrary probability
// predictor.
func CalibrateThresholdFunc(predict func(*cnf.Formula) float64, items []dataset.Labeled) float64 {
	type scored struct {
		prob float64
		gain int64 // propagations saved by choosing the frequency policy
	}
	var xs []scored
	for _, it := range items {
		xs = append(xs, scored{prob: predict(it.Inst.F), gain: it.PropsDefault - it.PropsFrequency})
	}
	best, bestGain := 1.1, int64(0) // threshold 1.1 ≡ never select
	for _, th := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		total := int64(0)
		for _, x := range xs {
			if x.prob >= th {
				total += x.gain
			}
		}
		if total > bestGain {
			best, bestGain = th, total
		}
	}
	return best
}
