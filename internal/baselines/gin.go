package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/cnf"
	"neuroselect/internal/nn"
	"neuroselect/internal/satgraph"
	"neuroselect/internal/tensor"
)

// onesCol returns an n×1 all-ones matrix, used to broadcast scalar
// parameters across rows.
func onesCol(n int) *tensor.Matrix {
	m := tensor.New(n, 1)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}

// GIN is a Graph Isomorphism Network classifier over the variable–clause
// graph, following the configuration G4SATBench uses for satisfiability-
// style prediction tasks: sum aggregation over signed edges, a learnable
// epsilon self-weight, and a two-layer MLP per GIN layer, with a mean
// readout over variable nodes.
type GIN struct {
	Hidden int
	Layers int
	Params *nn.Params

	eps  []*nn.Param
	mlps []*nn.MLP
	head *nn.MLP
}

// NewGIN constructs the baseline with the given hidden size and layer
// count.
func NewGIN(hidden, layers int, seed int64) *GIN {
	rng := rand.New(rand.NewSource(seed))
	p := nn.NewParams()
	m := &GIN{Hidden: hidden, Layers: layers, Params: p}
	for l := 0; l < layers; l++ {
		m.eps = append(m.eps, p.New(fmt.Sprintf("gin%d.eps", l), 1, 1, "zero", rng))
		m.mlps = append(m.mlps, nn.NewMLP(p, fmt.Sprintf("gin%d.mlp", l), []int{hidden, hidden, hidden}, rng))
	}
	m.head = nn.NewMLP(p, "head", []int{hidden, hidden, 1}, rng)
	return m
}

// signedAdj returns GIN's sum-aggregation operator: g.Adj with every
// weight ±1/deg replaced by its sign, the raw ±1 edge weight (deg ≥ 1 for
// every stored edge, so Copysign recovers it exactly).
func signedAdj(g *satgraph.VCG) *tensor.Sparse {
	s := tensor.NewSparse(g.Adj.Rows, g.Adj.Cols)
	backing := make([]tensor.SparseEntry, g.Adj.NNZ())
	for i, row := range g.Adj.Entries {
		out := backing[:len(row):len(row)]
		backing = backing[len(row):]
		for k, e := range row {
			out[k] = tensor.SparseEntry{Col: e.Col, W: math.Copysign(1, e.W)}
		}
		s.Entries[i] = out
	}
	return s
}

// Logit runs the forward pass for one variable–clause graph.
func (m *GIN) Logit(t *autodiff.Tape, g *satgraph.VCG) *autodiff.Value {
	return m.logit(t, g, signedAdj(g))
}

// logit is Logit with the graph's signed operator already derived.
func (m *GIN) logit(t *autodiff.Tape, g *satgraph.VCG, adj *tensor.Sparse) *autodiff.Value {
	x := t.Leaf(g.InitialFeatures(m.Hidden))
	for l := 0; l < m.Layers; l++ {
		agg := t.SpMM(adj, x) // sum aggregation with signed weights
		epsV := m.Params.V(m.eps[l])
		// (1+eps)·h_v + Σ h_u, with eps broadcast as a scalar.
		selfScaled := t.Add(x, t.RowScale(x, t.MatMul(t.Leaf(onesCol(x.M.Rows)), epsV)))
		x = t.ReLU(m.mlps[l].Apply(m.Params, t, t.Add(selfScaled, agg)))
	}
	vars := t.SliceRows(x, 0, g.NumVars)
	return m.head.Apply(m.Params, t, t.RowMean(vars))
}

// Predict returns the probability of label 1 for the formula.
func (m *GIN) Predict(f *cnf.Formula) float64 {
	g := satgraph.BuildVCG(f)
	t := autodiff.NewTape()
	m.Params.Bind(t)
	return sigmoid(m.Logit(t, g).M.Data[0])
}

// Name implements the Table 2 classifier interface.
func (m *GIN) Name() string { return "G4SATBench (GIN)" }

// Fit trains the classifier on labeled formulas with Adam + BCE, batch
// size 1.
func (m *GIN) Fit(fs []*cnf.Formula, labels []int, epochs int, lr float64, seed int64) float64 {
	graphs := make([]*satgraph.VCG, len(fs))
	adjs := make([]*tensor.Sparse, len(fs))
	for i, f := range fs {
		graphs[i] = satgraph.BuildVCG(f)
		adjs[i] = signedAdj(graphs[i])
	}
	return nn.Fit(m.Params, len(fs), epochs, lr, seed, func(t *autodiff.Tape, i int) *autodiff.Value {
		return t.BCEWithLogits(m.logit(t, graphs[i], adjs[i]), float64(labels[i]))
	}, nil)
}
