// Package baselines implements the two classifier baselines the paper
// compares against in Table 2: a NeuroSAT-style network over the
// literal–clause graph with LSTM message passing, and a GIN
// (G4SATBench-style) over the variable–clause graph with sum aggregation.
package baselines

import (
	"math"
	"math/rand"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/cnf"
	"neuroselect/internal/nn"
	"neuroselect/internal/satgraph"
	"neuroselect/internal/tensor"
)

// NeuroSAT is a compact reimplementation of the NeuroSAT architecture
// (Selsam et al., ICLR 2019) repurposed as a binary classifier: literal and
// clause nodes carry LSTM states refined by alternating rounds of
// literal→clause and clause→literal message passing, with the complementary
// literal's state concatenated into each literal update ("flip"). A mean
// readout over literal states feeds an MLP head.
type NeuroSAT struct {
	Hidden int
	Rounds int
	Params *nn.Params

	litInit, clInit *nn.Param
	litMsg, clMsg   *nn.Linear
	litLSTM, clLSTM *nn.LSTMCell
	head            *nn.MLP
}

// NewNeuroSAT constructs the baseline with the given hidden size and
// message-passing rounds, using LSTM update cells as in the original.
func NewNeuroSAT(hidden, rounds int, seed int64) *NeuroSAT {
	rng := rand.New(rand.NewSource(seed))
	p := nn.NewParams()
	m := &NeuroSAT{Hidden: hidden, Rounds: rounds, Params: p}
	m.litInit = p.New("lit_init", 1, hidden, "xavier", rng)
	m.clInit = p.New("cl_init", 1, hidden, "xavier", rng)
	m.litMsg = nn.NewLinear(p, "lit_msg", hidden, hidden, rng)
	m.clMsg = nn.NewLinear(p, "cl_msg", hidden, hidden, rng)
	// Literal update sees [clause message | flipped literal state].
	m.litLSTM = nn.NewLSTMCell(p, "lit_lstm", 2*hidden, hidden, rng)
	m.clLSTM = nn.NewLSTMCell(p, "cl_lstm", hidden, hidden, rng)
	m.head = nn.NewMLP(p, "head", []int{hidden, hidden, 1}, rng)
	return m
}

// Logit runs the forward pass for one literal–clause graph.
func (m *NeuroSAT) Logit(t *autodiff.Tape, g *satgraph.LCG) *autodiff.Value {
	nLits := 2 * g.NumVars
	zeroL := t.Leaf(tensor.New(nLits, m.Hidden))
	zeroC := t.Leaf(tensor.New(g.NumClauses, m.Hidden))
	litH := t.AddRowBroadcast(zeroL, m.Params.V(m.litInit))
	litC := zeroL
	clH := t.AddRowBroadcast(zeroC, m.Params.V(m.clInit))
	clC := zeroC

	flip := make([]int, nLits)
	for i := range flip {
		flip[i] = satgraph.FlipIndex(i)
	}
	for r := 0; r < m.Rounds; r++ {
		// Literals → clauses.
		cMsg := t.SpMM(g.LitToClause, m.litMsg.Apply(m.Params, t, litH))
		clH, clC = m.clLSTM.Apply(m.Params, t, cMsg, clH, clC)
		// Clauses → literals, with the complementary literal's state.
		lMsg := t.SpMM(g.ClauseToLit, m.clMsg.Apply(m.Params, t, clH))
		flipped := t.PermuteRows(litH, flip)
		litIn := t.ConcatCols(lMsg, flipped)
		litH, litC = m.litLSTM.Apply(m.Params, t, litIn, litH, litC)
	}
	return m.head.Apply(m.Params, t, t.RowMean(litH))
}

// Predict returns the probability of label 1 for the formula.
func (m *NeuroSAT) Predict(f *cnf.Formula) float64 {
	g := satgraph.BuildLCG(f)
	t := autodiff.NewTape()
	m.Params.Bind(t)
	return sigmoid(m.Logit(t, g).M.Data[0])
}

// Name implements the Table 2 classifier interface.
func (m *NeuroSAT) Name() string { return "NeuroSAT" }

// Fit trains the classifier on labeled formulas with Adam + BCE, batch
// size 1.
func (m *NeuroSAT) Fit(fs []*cnf.Formula, labels []int, epochs int, lr float64, seed int64) float64 {
	graphs := make([]*satgraph.LCG, len(fs))
	for i, f := range fs {
		graphs[i] = satgraph.BuildLCG(f)
	}
	return nn.Fit(m.Params, len(fs), epochs, lr, seed, func(t *autodiff.Tape, i int) *autodiff.Value {
		return t.BCEWithLogits(m.Logit(t, graphs[i]), float64(labels[i]))
	}, nil)
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
