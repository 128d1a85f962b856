// Package portfolio implements the NeuroSelect-Kissat flow of §5.4: a
// one-time model inference selects the clause-deletion policy for an
// instance, then the CDCL solver runs under the chosen policy. Inference
// time is accounted separately so the Figure 7(b) breakdown can be
// reproduced.
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
	"neuroselect/internal/satgraph"
	"neuroselect/internal/solver"
)

// NodeCapDefault mirrors the paper's 400,000-node filter: instances whose
// graph exceeds the cap skip inference and use the default policy.
const NodeCapDefault = 400000

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
)

// Selector chooses a deletion policy per instance using a trained
// NeuroSelect model, at the decision threshold the model carries.
type Selector struct {
	Model *core.Model
	// Obs, when non-nil, records every selection decision as metrics:
	// neuroselect_portfolio_choices_total{policy,fallback} and the
	// inference-latency histogram neuroselect_portfolio_inference_seconds.
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
	// probability: FallbackNodeCap, FallbackPanic or FallbackError. Empty
	// when inference drove the selection.
	Fallback string
	// Err carries the contained inference failure behind a non-empty
	// Fallback (nil for the node-cap skip).
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
	if f.NumVars+len(f.Clauses) > NodeCapDefault {
		return s.record(Choice{Policy: deletion.DefaultPolicy{}, Prob: -1, Fallback: FallbackNodeCap})
	}
	start := time.Now()
	prob, err := s.infer(f)
	ch := Choice{Prob: prob, Inference: time.Since(start)}
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

// record publishes one selection decision to the selector's registry (when
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
		s.Obs.Histogram("neuroselect_portfolio_inference_seconds",
			"Wall-clock latency of the one-time model inference.",
			nil, nil).Observe(ch.Inference.Seconds())
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
	return s.Model.PredictGraph(satgraph.BuildVCG(f)), nil
}

// Report is the outcome of one adaptive solve.
type Report struct {
	Choice    Choice
	Result    solver.Result
	SolveTime time.Duration
}

// Solve chooses a policy and solves under it with the experiment-standard
// options and the given conflict budget.
func (s *Selector) Solve(f *cnf.Formula, maxConflicts int64) (Report, error) {
	return s.SolveContext(context.Background(), f, maxConflicts)
}

// SolveContext is Solve under a context: cancellation and deadlines abort
// the underlying search with Unknown (see solver.SolveContext). A
// contained solver panic is returned as both an error and an
// error-carrying Unknown report, so callers can either fail or record the
// instance and continue.
func (s *Selector) SolveContext(ctx context.Context, f *cnf.Formula, maxConflicts int64) (Report, error) {
	ch := s.Choose(f)
	start := time.Now()
	res, err := solver.SolveContext(ctx, f, dataset.SolveOptions(ch.Policy, maxConflicts))
	rep := Report{Choice: ch, Result: res, SolveTime: time.Since(start)}
	if err != nil {
		return rep, err
	}
	return rep, nil
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
