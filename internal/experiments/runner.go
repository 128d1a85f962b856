// Package experiments reproduces every table and figure of the paper's
// evaluation: Figure 3 (propagation-frequency distribution), Figure 4
// (default vs. frequency policy scatter), Table 1 (dataset statistics),
// Table 2 (classifier comparison), Figure 7 (portfolio scatter and
// inference-time/improvement box plots), and Table 3 (runtime statistics).
//
// A Runner owns the shared artifacts (labeled corpus, trained NeuroSelect
// model) and exposes one method per experiment. Scale presets size the runs
// from unit-test-fast to paper-shaped.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/satgraph"
)

// InstanceFailure is one isolated per-instance failure in a solving loop:
// the run records it as a failure row and continues instead of aborting
// the whole figure or table.
type InstanceFailure struct {
	// Name is the instance name.
	Name string
	// Stage names the step that failed (e.g. "kissat", "neuroselect").
	Stage string
	// Err is the contained failure, as text so results stay serializable.
	Err string
}

func (f InstanceFailure) String() string {
	return fmt.Sprintf("%s [%s]: %s", f.Name, f.Stage, f.Err)
}

// isolate runs one per-instance step with panic containment and the
// experiments.instance fault point armed at its entry; any failure comes
// back as an error for the caller to record as a failure row.
func isolate(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if err := faultpoint.Hit(faultpoint.ExperimentInstance); err != nil {
		return err
	}
	return fn()
}

// Scale sizes an experiment run. Corpus.MaxConflicts is its one conflict
// budget (the analogue of the paper's 5,000 s timeout): the labeling solves
// and every experiment's solves all run at Corpus.Budget(), so a cost read
// from the labels and one solved by an experiment are measured alike.
type Scale struct {
	Corpus dataset.Config
	Model  core.Config
	Train  core.TrainConfig
	// Restarts is the number of training restarts; the model with the best
	// balanced accuracy on the training set is kept.
	Restarts int
	// BaselineEpochs bounds the Table 2 baseline training runs.
	BaselineEpochs int
}

// QuickScale is small enough for unit tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Corpus: dataset.Config{TrainStrata: 2, PerStratum: 6, TestSize: 8, Seed: 11,
			MaxConflicts: 20000},
		Model:          core.Config{Hidden: 8, HGTLayers: 1, MPLayers: 2, Attention: true, Seed: 3},
		Train:          core.TrainConfig{Epochs: 6, LR: 5e-3, Seed: 1},
		Restarts:       1,
		BaselineEpochs: 4,
	}
}

// DefaultScale is the cmd/experiments default: minutes on a laptop, enough
// instances for the paper's qualitative shapes.
func DefaultScale() Scale {
	return Scale{
		Corpus: dataset.Config{TrainStrata: 6, PerStratum: 18, TestSize: 36, Seed: 11,
			MaxConflicts: 60000},
		Model:          core.Config{Hidden: 16, HGTLayers: 2, MPLayers: 2, Attention: true, Seed: 3},
		Train:          core.TrainConfig{Epochs: 60, LR: 1e-3, Seed: 1},
		Restarts:       3,
		BaselineEpochs: 20,
	}
}

// Runner executes the experiments, memoizing the corpus and trained model.
// The corpus's labeling solves are the experiments' default/frequency
// measurements: Figure 4 and ext-policies read them instead of solving
// those formulas again.
type Runner struct {
	Scale Scale
	// Log, when non-nil, receives progress lines. Writes are serialized so
	// parallel sweep cells may log concurrently.
	Log io.Writer
	// Workers bounds the sweep engine's worker pool (0 → runtime.NumCPU()).
	// Tables and JSON are byte-identical for every worker count: cells are
	// collected by instance index, never by completion order.
	Workers int
	// CellTimeout, when positive, gives every experiment's sweep cell (the
	// solves of one instance under one policy or system) its own
	// wall-clock deadline through the solver.SolveContext path. The
	// corpus's labeling solves run without one.
	CellTimeout time.Duration
	// BaseContext, when non-nil, is the parent context of every sweep;
	// canceling it (e.g. on SIGINT) drains all workers and aborts the run.
	BaseContext context.Context
	// Deterministic replaces wall-clock measurements in reports with a
	// propagation-derived pseudo-time (1 propagation ≡ 1µs) and zeroes
	// inference timings, making rendered tables and JSON byte-identical
	// across runs and worker counts. Used by the determinism regression
	// tests and for reproducible archival artifacts.
	Deterministic bool
	// Obs, when non-nil, receives sweep telemetry: live queue and progress
	// gauges of the running sweep, the per-cell latency histogram, and the
	// running cell counters, as cmd/experiments -metrics-addr serves them.
	Obs *obs.Registry

	logMu  sync.Mutex
	corpus *dataset.Corpus
	model  *core.Model
}

// NewRunner returns a Runner at the given scale.
func NewRunner(s Scale) *Runner { return &Runner{Scale: s} }

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.logMu.Lock()
		defer r.logMu.Unlock()
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// baseContext returns the parent context of every sweep.
func (r *Runner) baseContext() context.Context {
	if r.BaseContext != nil {
		return r.BaseContext
	}
	return context.Background()
}

// Corpus builds (once) the labeled corpus, sharding the labeling solves
// across the runner's worker pool.
func (r *Runner) Corpus() (*dataset.Corpus, error) {
	if r.corpus == nil {
		r.logf("building labeled corpus (%d strata × %d + %d test)...",
			r.Scale.Corpus.TrainStrata, r.Scale.Corpus.PerStratum, r.Scale.Corpus.TestSize)
		cfg := r.Scale.Corpus
		if cfg.Workers == 0 {
			cfg.Workers = r.Workers
		}
		c, err := dataset.BuildContext(r.baseContext(), cfg)
		if err != nil {
			return nil, err
		}
		r.corpus = c
	}
	return r.corpus, nil
}

// Samples converts labeled items to model training samples.
func Samples(items []dataset.Labeled) []core.Sample {
	out := make([]core.Sample, len(items))
	for i, it := range items {
		out[i] = core.Sample{Name: it.Inst.Name, G: satgraph.BuildVCG(it.Inst.F), Label: it.Label}
	}
	return out
}

// TrainedModel trains (once) the NeuroSelect model on the corpus's training
// strata and calibrates its decision threshold on the same strata, so the
// model carries the rule every selector built from it decides by.
func (r *Runner) TrainedModel() (*core.Model, error) {
	if r.model != nil {
		return r.model, nil
	}
	c, err := r.Corpus()
	if err != nil {
		return nil, err
	}
	train := Samples(c.All())
	r.logf("training NeuroSelect (%d samples, %d epochs, %d restarts)...",
		len(train), r.Scale.Train.Epochs, max(r.Scale.Restarts, 1))
	m, score := r.train(r.Scale.Model, train)
	r.logf("best training balanced accuracy %.3f", score)
	m.Threshold = portfolio.CalibrateThreshold(m, c.All())
	r.logf("calibrated decision threshold: %.2f", m.Threshold)
	r.model = m
	return m, nil
}

// train fits a model of the given configuration to the samples with the
// balanced positive weight, keeping the best of the scale's restarts by
// training balanced accuracy. TrainedModel and Table 2's attention
// ablation both train through it, so they differ only in configuration.
func (r *Runner) train(cfg core.Config, samples []core.Sample) (*core.Model, float64) {
	tc := r.Scale.Train
	tc.PosWeight = core.BalancedPosWeight(samples)
	return core.TrainBest(cfg, samples, tc, max(r.Scale.Restarts, 1))
}

// Selector returns a portfolio selector for the trained model.
func (r *Runner) Selector() (*portfolio.Selector, error) {
	m, err := r.TrainedModel()
	if err != nil {
		return nil, err
	}
	return portfolio.NewSelector(m), nil
}
