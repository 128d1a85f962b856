// Package core implements the NeuroSelect model of the paper: a Hybrid
// Graph Transformer (HGT) over the bipartite variable–clause graph that
// combines local message passing (Eq. 6–7) with global linear attention on
// variable nodes (Eq. 8–9), a mean readout over variable embeddings
// (Eq. 10), and an MLP head trained with binary cross-entropy (Eq. 11) to
// select between the default and the propagation-frequency–guided clause
// deletion policies.
package core

import (
	"fmt"
	"math/rand"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/cnf"
	"neuroselect/internal/nn"
	"neuroselect/internal/satgraph"
)

// Config sets the model hyperparameters. The paper's configuration (§5.2)
// is two HGT layers, each with three message-passing layers, hidden
// dimension 32, and global linear attention enabled.
type Config struct {
	Hidden    int   // hidden dimension d (paper: 32)
	HGTLayers int   // number of HGT layers L (paper: 2)
	MPLayers  int   // message-passing layers per HGT layer (paper: 3)
	Attention bool  // enable the global linear-attention block
	Seed      int64 // parameter initialization seed
}

// PaperConfig returns the hyperparameters reported in §5.2.
func PaperConfig() Config {
	return Config{Hidden: 32, HGTLayers: 2, MPLayers: 3, Attention: true, Seed: 1}
}

// DefaultConfig returns a smaller configuration suitable for fast CPU
// training in the reproduction's experiments.
func DefaultConfig() Config {
	return Config{Hidden: 16, HGTLayers: 2, MPLayers: 2, Attention: true, Seed: 1}
}

func (c *Config) fillDefaults() {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.HGTLayers == 0 {
		c.HGTLayers = 2
	}
	if c.MPLayers == 0 {
		c.MPLayers = 2
	}
}

// mpLayer is one Eq. 6–7 message-passing layer: three single-linear MLPs
// for the message, the self-loop, and the update.
type mpLayer struct {
	msg, self, update *nn.Linear
}

// attnLayer holds the Eq. 8 query/key/value projections.
type attnLayer struct {
	q, k, v *nn.Linear
}

// hgtLayer is one hybrid layer: a stack of MPNN sublayers followed by
// linear attention restricted to variable nodes (Eq. 3–5).
type hgtLayer struct {
	mp   []*mpLayer
	attn *attnLayer
}

// DefaultThreshold is the decision threshold of a model that was never
// calibrated: a fresh model, or a model file that stores none.
const DefaultThreshold = 0.5

// Model is the NeuroSelect classifier. Inference (Predict, PredictGraph)
// is a forward-only pass that reads Params and works in pooled per-call
// scratch, so any number of goroutines may run it on one model at once
// with no lock. Training goes through Logit on an autodiff tape; training
// writes Params and must not overlap inference.
type Model struct {
	Cfg    Config
	Params *nn.Params
	// Threshold is the decision rule that travels with the weights: a
	// selector picks the frequency policy when the predicted probability
	// is at or above it. Above 1 means never; 0 means always.
	Threshold float64

	layers []*hgtLayer
	head   *nn.MLP
}

// NewModel constructs a model with freshly initialized parameters.
func NewModel(cfg Config) *Model {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := nn.NewParams()
	m := &Model{Cfg: cfg, Params: p, Threshold: DefaultThreshold}
	d := cfg.Hidden
	for l := 0; l < cfg.HGTLayers; l++ {
		hl := &hgtLayer{}
		for k := 0; k < cfg.MPLayers; k++ {
			prefix := fmt.Sprintf("hgt%d.mp%d", l, k)
			hl.mp = append(hl.mp, &mpLayer{
				msg:    nn.NewLinear(p, prefix+".msg", d, d, rng),
				self:   nn.NewLinear(p, prefix+".self", d, d, rng),
				update: nn.NewLinear(p, prefix+".update", d, d, rng),
			})
		}
		if cfg.Attention {
			prefix := fmt.Sprintf("hgt%d.attn", l)
			hl.attn = &attnLayer{
				q: nn.NewLinear(p, prefix+".q", d, d, rng),
				k: nn.NewLinear(p, prefix+".k", d, d, rng),
				v: nn.NewLinear(p, prefix+".v", d, d, rng),
			}
		}
		m.layers = append(m.layers, hl)
	}
	m.head = nn.NewMLP(p, "head", []int{d, d, 1}, rng)
	return m
}

// Logit runs the forward pass for one graph on the given tape and returns
// the 1×1 classification logit. Params.Bind must already have been called
// on the tape. Training differentiates through it; PredictGraph computes
// the same logit, bit for bit, without a tape.
func (m *Model) Logit(t *autodiff.Tape, g *satgraph.VCG) *autodiff.Value {
	x := t.Leaf(g.InitialFeatures(m.Cfg.Hidden))
	n := g.NumVars
	for _, hl := range m.layers {
		// Eq. 3: MPNN over the full bipartite graph.
		for _, mp := range hl.mp {
			msg := t.SpMM(g.Adj, mp.msg.Apply(m.Params, t, x)) // Eq. 6
			selfT := mp.self.Apply(m.Params, t, x)
			x = t.ReLU(mp.update.Apply(m.Params, t, t.Add(msg, selfT))) // Eq. 7
		}
		if hl.attn != nil {
			// Eq. 4: linear attention over variable nodes only.
			vars := t.SliceRows(x, 0, n)
			varsOut := m.linearAttention(t, hl.attn, vars)
			clauses := t.SliceRows(x, n, g.NumNodes())
			// Eq. 5: recombine variable and clause features.
			x = t.ConcatRows(varsOut, clauses)
		}
	}
	// Eq. 10: mean readout over variable embeddings.
	hg := t.RowMean(t.SliceRows(x, 0, n))
	return m.head.Apply(m.Params, t, hg)
}

// linearAttention applies Eq. 8–9:
//
//	Q̃ = Q/‖Q‖_F,  K̃ = K/‖K‖_F
//	D = diag(1 + (1/N)·Q̃(K̃ᵀ1))
//	Z_out = D⁻¹ [V + (1/N)·Q̃(K̃ᵀV)]
func (m *Model) linearAttention(t *autodiff.Tape, a *attnLayer, z *autodiff.Value) *autodiff.Value {
	n := float64(z.M.Rows)
	if n == 0 {
		return z
	}
	q := t.FrobNormalize(a.q.Apply(m.Params, t, z))
	k := t.FrobNormalize(a.k.Apply(m.Params, t, z))
	v := a.v.Apply(m.Params, t, z)
	kSum := t.Transpose(t.ColSums(k))                    // K̃ᵀ1, d×1
	d := t.AddScalar(t.Scale(t.MatMul(q, kSum), 1/n), 1) // N×1 diagonal of D
	kv := t.MatMul(t.Transpose(k), v)                    // K̃ᵀV, d×d
	numer := t.Add(v, t.Scale(t.MatMul(q, kv), 1/n))     // V + (1/N)Q̃(K̃ᵀV)
	return t.RowScale(numer, t.Reciprocal(d))            // D⁻¹ · numer
}

// Predict returns the probability that the frequency-guided deletion policy
// (label 1) outperforms the default policy on the formula.
func (m *Model) Predict(f *cnf.Formula) float64 {
	return m.PredictGraph(satgraph.BuildVCG(f))
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + exp(-x))
	}
	e := exp(x)
	return e / (1 + e)
}
