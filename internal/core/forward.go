package core

import (
	"sync"

	"neuroselect/internal/cnf"
	"neuroselect/internal/nn"
	"neuroselect/internal/satgraph"
	"neuroselect/internal/tensor"
)

// scratch is the working memory of one forward pass: the graph Predict
// builds, the node features x, three work buffers of at most N×Hidden, the
// N-vector of the attention normaliser, and the Hidden-sized attention and
// head buffers. A pass takes one from scratchPool, so concurrent passes
// never share one; the buffers grow on demand and later passes reuse them.
type scratch struct {
	g          satgraph.VCG
	x, a, b, c tensor.Matrix
	vars       tensor.Matrix // view of x's variable rows
	diag       tensor.Matrix
	ksum, kv   tensor.Matrix
	h          [2]tensor.Matrix
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// shape makes m a rows×cols matrix over its own storage, growing it when
// it is too small. The contents are unspecified.
func shape(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// linear stores x·W + b in dst: nn.Linear.Apply without the tape.
func linear(dst, x *tensor.Matrix, l *nn.Linear) {
	tensor.MatMulInto(dst, x, l.W.M)
	tensor.AddRowBroadcastInPlace(dst, l.B.M)
}

// Predict returns the probability that the frequency-guided deletion policy
// (label 1) outperforms the default policy on the formula. It builds the
// formula's graph into the pooled scratch, so once the scratch has grown to
// the formula a call allocates nothing.
func (m *Model) Predict(f *cnf.Formula) float64 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.g.Build(f)
	return sigmoid(m.forward(s, &s.g))
}

// PredictGraph is Predict for a pre-built graph. It evaluates Logit's
// arithmetic (Eq. 3–10) with the same tensor kernels in the same order, so
// it returns sigmoid(Logit) bit for bit, but it records no tape and
// allocates nothing once the pooled scratch has grown to the graph.
func (m *Model) PredictGraph(g *satgraph.VCG) float64 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return sigmoid(m.forward(s, g))
}

// forward returns the classification logit of g, computed in s.
func (m *Model) forward(s *scratch, g *satgraph.VCG) float64 {
	d, n, nodes := m.Cfg.Hidden, g.NumVars, g.NumNodes()
	x := shape(&s.x, nodes, d)
	// §4.2 initial features: 1 on variable nodes, 0 on clause nodes.
	s.vars = tensor.Matrix{Rows: n, Cols: d, Data: x.Data[:n*d]}
	for i := range s.vars.Data {
		s.vars.Data[i] = 1
	}
	clear(x.Data[n*d:])
	for _, hl := range m.layers {
		// Eq. 3: MPNN over the full bipartite graph.
		for _, mp := range hl.mp {
			a, b := shape(&s.a, nodes, d), shape(&s.b, nodes, d)
			linear(a, x, mp.msg)
			tensor.SpMMInto(b, g.Adj, a) // Eq. 6
			linear(a, x, mp.self)
			tensor.AddInPlace(b, a)
			linear(x, b, mp.update) // Eq. 7
			tensor.ReLUInPlace(x)
		}
		// Eq. 4–5: linear attention rewrites the variable rows only.
		if hl.attn != nil && n > 0 {
			m.attention(s, hl.attn, &s.vars)
		}
	}
	// Eq. 10: mean readout over variable embeddings, then the head.
	h := shape(&s.h[0], 1, d)
	tensor.RowMeanInto(h, &s.vars)
	for i, l := range m.head.Layers {
		out := shape(&s.h[(i+1)%2], 1, l.W.M.Cols)
		linear(out, h, l)
		if i+1 < len(m.head.Layers) {
			tensor.ReLUInPlace(out)
		}
		h = out
	}
	return h.Data[0]
}

// attention overwrites the variable rows z (N ≥ 1 of them) with the Eq. 8–9
// linear attention of linearAttention, in the same operation order.
func (m *Model) attention(s *scratch, a *attnLayer, z *tensor.Matrix) {
	n, d := z.Rows, z.Cols
	invN := 1 / float64(n)
	q, k, v := shape(&s.a, n, d), shape(&s.b, n, d), shape(&s.c, n, d)
	linear(q, z, a.q)
	frobNormalize(q)
	linear(k, z, a.k)
	frobNormalize(k)
	linear(v, z, a.v)

	// D = 1 + (1/N)·Q̃(K̃ᵀ1), an N×1 diagonal.
	ksum := shape(&s.ksum, 1, d)
	tensor.ColSumsInto(ksum, k)
	ksum.Rows, ksum.Cols = d, 1
	diag := shape(&s.diag, n, 1)
	tensor.MatMulInto(diag, q, ksum)
	tensor.ScaleInPlace(diag, invN)
	tensor.AddScalarInPlace(diag, 1)

	// numer = V + (1/N)·Q̃(K̃ᵀV); K̃ is dead once K̃ᵀV is formed, so its
	// buffer takes Q̃(K̃ᵀV).
	kv := shape(&s.kv, d, d)
	tensor.TMatMulInto(kv, k, v)
	tensor.MatMulInto(k, q, kv)
	tensor.ScaleInPlace(k, invN)
	tensor.AddInPlace(v, k)

	// Z_out = D⁻¹ · numer.
	tensor.ReciprocalInPlace(diag)
	tensor.RowScaleInPlace(v, diag)
	copy(z.Data, v.Data)
}

// frobNormalize scales q to unit Frobenius norm in place, leaving a zero
// matrix as it is (autodiff.FrobNormalize's forward value).
func frobNormalize(q *tensor.Matrix) {
	if f := tensor.Frobenius(q); f != 0 {
		tensor.ScaleInPlace(q, 1/f)
	}
}
