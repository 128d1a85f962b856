package core

import (
	"math"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/nn"
	"neuroselect/internal/satgraph"
)

func exp(x float64) float64 { return math.Exp(x) }

// Sample is one labeled training instance: the graph of a CNF formula and
// the §5.1 label (1 when the frequency-guided policy reduced propagations
// by at least 2%, else 0).
type Sample struct {
	Name  string
	G     *satgraph.VCG
	Label int
}

// TrainConfig controls the training loop. The paper uses Adam with learning
// rate 1e-4, batch size 1, and 400 epochs; the reproduction defaults to a
// higher rate and fewer epochs because the dataset and model are smaller.
type TrainConfig struct {
	Epochs int
	LR     float64
	Seed   int64
	// PosWeight scales the loss of label-1 samples, the standard remedy
	// for class imbalance (default 1). Set to (negatives/positives) to
	// equalize the classes' gradient mass.
	PosWeight float64
	// OnEpoch, when non-nil, receives the epoch index and mean training
	// loss after each epoch.
	OnEpoch func(epoch int, loss float64)
}

func (c *TrainConfig) fillDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.LR == 0 {
		c.LR = 1e-2
	}
	if c.PosWeight == 0 {
		c.PosWeight = 1
	}
}

// BalancedPosWeight returns negatives/positives for the sample set, the
// PosWeight that equalizes class gradient mass (1 when a class is empty).
func BalancedPosWeight(samples []Sample) float64 {
	pos := 0
	for _, s := range samples {
		pos += s.Label
	}
	if pos == 0 || pos == len(samples) {
		return 1
	}
	return float64(len(samples)-pos) / float64(pos)
}

// Train fits the model on the samples with Adam and BCE loss (Eq. 11),
// batch size 1 as in the paper. It returns the mean loss of the final
// epoch.
func Train(m *Model, samples []Sample, cfg TrainConfig) float64 {
	cfg.fillDefaults()
	return nn.Fit(m.Params, len(samples), cfg.Epochs, cfg.LR, cfg.Seed, func(t *autodiff.Tape, i int) *autodiff.Value {
		s := samples[i]
		loss := t.BCEWithLogits(m.Logit(t, s.G), float64(s.Label))
		if s.Label == 1 && cfg.PosWeight != 1 {
			loss = t.Scale(loss, cfg.PosWeight)
		}
		return loss
	}, cfg.OnEpoch)
}

// BalancedAccuracy is the mean of the per-class accuracies (TPR+TNR)/2 at
// the 0.5 threshold — the metric used to select among training restarts,
// since it scores a degenerate all-negative model at 0.5 rather than the
// base rate.
func BalancedAccuracy(m *Model, samples []Sample) float64 {
	var tp, fn, tn, fp int
	for _, s := range samples {
		pred := m.PredictGraph(s.G) >= 0.5
		switch {
		case s.Label == 1 && pred:
			tp++
		case s.Label == 1:
			fn++
		case pred:
			fp++
		default:
			tn++
		}
	}
	tpr, tnr := 0.5, 0.5
	if tp+fn > 0 {
		tpr = float64(tp) / float64(tp+fn)
	}
	if tn+fp > 0 {
		tnr = float64(tn) / float64(tn+fp)
	}
	return (tpr + tnr) / 2
}

// TrainBest trains `restarts` models from different parameter seeds and
// returns the one with the highest balanced accuracy on the training set —
// a cheap, standard guard against optimization runs that collapse to the
// majority class. The returned float is that balanced accuracy.
func TrainBest(cfg Config, samples []Sample, tcfg TrainConfig, restarts int) (*Model, float64) {
	if restarts < 1 {
		restarts = 1
	}
	var best *Model
	bestScore := -1.0
	for r := 0; r < restarts; r++ {
		mcfg := cfg
		mcfg.Seed = cfg.Seed + int64(r)*101
		rcfg := tcfg
		rcfg.Seed = tcfg.Seed + int64(r)*31
		m := NewModel(mcfg)
		Train(m, samples, rcfg)
		if score := BalancedAccuracy(m, samples); score > bestScore {
			best, bestScore = m, score
		}
	}
	return best, bestScore
}

// Accuracy evaluates classification accuracy at the 0.5 threshold.
func Accuracy(m *Model, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		p := m.PredictGraph(s.G)
		if (p >= 0.5) == (s.Label == 1) {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
