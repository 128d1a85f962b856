// Package autodiff implements tape-based reverse-mode automatic
// differentiation over dense matrices. A Tape records operations in
// execution order; Backward walks the tape in reverse, accumulating
// gradients. The operator set covers what the NeuroSelect models need:
// linear algebra, elementwise nonlinearities, graph aggregation (sparse
// matrix products), Frobenius normalization for the paper's linear
// attention, and a numerically stable binary cross-entropy.
package autodiff

import (
	"fmt"
	"math"

	"neuroselect/internal/tensor"
)

// Value is a node in the computation graph holding a matrix and, after
// Backward, its gradient.
type Value struct {
	M    *tensor.Matrix
	grad *tensor.Matrix
	back func()
}

// Grad returns the gradient accumulated for this value (nil before
// Backward).
func (v *Value) Grad() *tensor.Matrix { return v.grad }

// ensureGrad lazily allocates the gradient buffer.
func (v *Value) ensureGrad() *tensor.Matrix {
	if v.grad == nil {
		v.grad = tensor.New(v.M.Rows, v.M.Cols)
	}
	return v.grad
}

// Tape records operations for reverse-mode differentiation.
type Tape struct {
	nodes []*Value
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset clears the tape for reuse.
func (t *Tape) Reset() { t.nodes = t.nodes[:0] }

// node registers a new value with its backward closure.
func (t *Tape) node(m *tensor.Matrix, back func()) *Value {
	v := &Value{M: m, back: back}
	t.nodes = append(t.nodes, v)
	return v
}

// Leaf registers a matrix as a differentiable input (parameter or input
// features) so its gradient is collected.
func (t *Tape) Leaf(m *tensor.Matrix) *Value {
	return t.node(m, nil)
}

// Backward seeds the gradient of loss (which must be 1×1) with 1 and
// back-propagates through the tape.
func (t *Tape) Backward(loss *Value) {
	if loss.M.Rows != 1 || loss.M.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward needs a scalar loss, got %dx%d", loss.M.Rows, loss.M.Cols))
	}
	loss.ensureGrad().Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.grad != nil {
			n.back()
		}
	}
}

// MatMul returns a×b.
func (t *Tape) MatMul(a, b *Value) *Value {
	out := t.node(tensor.MatMul(a.M, b.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), tensor.MatMulT(out.grad, b.M))
		tensor.AddInPlace(b.ensureGrad(), tensor.TMatMul(a.M, out.grad))
	}
	return out
}

// Transpose returns aᵀ.
func (t *Tape) Transpose(a *Value) *Value {
	out := t.node(tensor.Transpose(a.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), tensor.Transpose(out.grad))
	}
	return out
}

// Add returns a+b.
func (t *Tape) Add(a, b *Value) *Value {
	out := t.node(tensor.Add(a.M, b.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), out.grad)
		tensor.AddInPlace(b.ensureGrad(), out.grad)
	}
	return out
}

// Sub returns a−b.
func (t *Tape) Sub(a, b *Value) *Value {
	out := t.node(tensor.Sub(a.M, b.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), out.grad)
		tensor.AddInPlace(b.ensureGrad(), tensor.Scale(out.grad, -1))
	}
	return out
}

// Scale returns s·a for scalar constant s.
func (t *Tape) Scale(a *Value, s float64) *Value {
	out := t.node(tensor.Scale(a.M, s), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), tensor.Scale(out.grad, s))
	}
	return out
}

// AddScalar returns a + c elementwise for scalar constant c.
func (t *Tape) AddScalar(a *Value, c float64) *Value {
	m := a.M.Clone()
	tensor.AddScalarInPlace(m, c)
	out := t.node(m, nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), out.grad)
	}
	return out
}

// Hadamard returns a⊙b.
func (t *Tape) Hadamard(a, b *Value) *Value {
	out := t.node(tensor.Hadamard(a.M, b.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), tensor.Hadamard(out.grad, b.M))
		tensor.AddInPlace(b.ensureGrad(), tensor.Hadamard(out.grad, a.M))
	}
	return out
}

// ReLU returns max(a, 0) elementwise.
func (t *Tape) ReLU(a *Value) *Value {
	m := a.M.Clone()
	tensor.ReLUInPlace(m)
	out := t.node(m, nil)
	out.back = func() {
		g := a.ensureGrad()
		for i, x := range a.M.Data {
			if x > 0 {
				g.Data[i] += out.grad.Data[i]
			}
		}
	}
	return out
}

// Sigmoid returns 1/(1+e^−a) elementwise.
func (t *Tape) Sigmoid(a *Value) *Value {
	out := t.node(tensor.Apply(a.M, sigmoid), nil)
	out.back = func() {
		g := a.ensureGrad()
		for i, y := range out.M.Data {
			g.Data[i] += out.grad.Data[i] * y * (1 - y)
		}
	}
	return out
}

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a *Value) *Value {
	out := t.node(tensor.Apply(a.M, math.Tanh), nil)
	out.back = func() {
		g := a.ensureGrad()
		for i, y := range out.M.Data {
			g.Data[i] += out.grad.Data[i] * (1 - y*y)
		}
	}
	return out
}

// RowMean returns the 1×C mean of the rows of a.
func (t *Tape) RowMean(a *Value) *Value {
	out := t.node(tensor.RowMean(a.M), nil)
	out.back = func() {
		g := a.ensureGrad()
		inv := 1.0 / float64(a.M.Rows)
		for i := 0; i < a.M.Rows; i++ {
			row := g.Row(i)
			for j, v := range out.grad.Data {
				row[j] += v * inv
			}
		}
	}
	return out
}

// ColSums returns the 1×C column sums of a.
func (t *Tape) ColSums(a *Value) *Value {
	out := t.node(tensor.ColSums(a.M), nil)
	out.back = func() {
		g := a.ensureGrad()
		for i := 0; i < a.M.Rows; i++ {
			row := g.Row(i)
			for j, v := range out.grad.Data {
				row[j] += v
			}
		}
	}
	return out
}

// AddRowBroadcast returns a with row vector r (1×C) added to every row.
func (t *Tape) AddRowBroadcast(a, r *Value) *Value {
	out := t.node(tensor.AddRowBroadcast(a.M, r.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), out.grad)
		tensor.AddInPlace(r.ensureGrad(), tensor.ColSums(out.grad))
	}
	return out
}

// RowScale scales row i of a by d[i] where d is N×1.
func (t *Tape) RowScale(a, d *Value) *Value {
	out := a.M.Clone()
	tensor.RowScaleInPlace(out, d.M)
	node := t.node(out, nil)
	node.back = func() {
		ga := a.ensureGrad()
		gd := d.ensureGrad()
		for i := 0; i < a.M.Rows; i++ {
			s := d.M.Data[i]
			arow := a.M.Row(i)
			grow := node.grad.Row(i)
			garow := ga.Row(i)
			acc := 0.0
			for j, gv := range grow {
				garow[j] += gv * s
				acc += gv * arow[j]
			}
			gd.Data[i] += acc
		}
	}
	return node
}

// Reciprocal returns 1/a elementwise.
func (t *Tape) Reciprocal(a *Value) *Value {
	m := a.M.Clone()
	tensor.ReciprocalInPlace(m)
	out := t.node(m, nil)
	out.back = func() {
		g := a.ensureGrad()
		for i, x := range a.M.Data {
			g.Data[i] -= out.grad.Data[i] / (x * x)
		}
	}
	return out
}

// FrobNormalize returns a/‖a‖_F (the paper's Q̃, K̃ in Eq. 8). For a zero
// matrix the output is zero and the gradient vanishes.
func (t *Tape) FrobNormalize(a *Value) *Value {
	f := tensor.Frobenius(a.M)
	if f == 0 {
		out := t.node(a.M.Clone(), nil)
		out.back = func() {}
		return out
	}
	out := t.node(tensor.Scale(a.M, 1/f), nil)
	out.back = func() {
		// d(a/f)/da: g/f − a · (Σ g⊙a)/f³
		dot := 0.0
		for i := range a.M.Data {
			dot += out.grad.Data[i] * a.M.Data[i]
		}
		g := a.ensureGrad()
		c := dot / (f * f * f)
		for i := range a.M.Data {
			g.Data[i] += out.grad.Data[i]/f - a.M.Data[i]*c
		}
	}
	return out
}

// SpMM returns s×a for a constant sparse operator s (no gradient flows to
// s). This is the graph-aggregation primitive of the MPNN.
func (t *Tape) SpMM(s *tensor.Sparse, a *Value) *Value {
	out := t.node(tensor.SpMM(s, a.M), nil)
	out.back = func() {
		tensor.AddInPlace(a.ensureGrad(), tensor.SpMMT(s, out.grad))
	}
	return out
}

// ConcatCols returns [a | b] with identical row counts.
func (t *Tape) ConcatCols(a, b *Value) *Value {
	if a.M.Rows != b.M.Rows {
		panic(fmt.Sprintf("autodiff: concat rows %d vs %d", a.M.Rows, b.M.Rows))
	}
	out := tensor.New(a.M.Rows, a.M.Cols+b.M.Cols)
	for i := 0; i < a.M.Rows; i++ {
		copy(out.Row(i)[:a.M.Cols], a.M.Row(i))
		copy(out.Row(i)[a.M.Cols:], b.M.Row(i))
	}
	node := t.node(out, nil)
	node.back = func() {
		ga, gb := a.ensureGrad(), b.ensureGrad()
		for i := 0; i < a.M.Rows; i++ {
			grow := node.grad.Row(i)
			garow := ga.Row(i)
			gbrow := gb.Row(i)
			for j := range garow {
				garow[j] += grow[j]
			}
			for j := range gbrow {
				gbrow[j] += grow[a.M.Cols+j]
			}
		}
	}
	return node
}

// SliceRows returns rows [lo, hi) of a as a view-copy.
func (t *Tape) SliceRows(a *Value, lo, hi int) *Value {
	if lo < 0 || hi > a.M.Rows || lo > hi {
		panic(fmt.Sprintf("autodiff: slice [%d,%d) of %d rows", lo, hi, a.M.Rows))
	}
	out := tensor.New(hi-lo, a.M.Cols)
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), a.M.Row(i))
	}
	node := t.node(out, nil)
	node.back = func() {
		g := a.ensureGrad()
		for i := lo; i < hi; i++ {
			grow := node.grad.Row(i - lo)
			garow := g.Row(i)
			for j, v := range grow {
				garow[j] += v
			}
		}
	}
	return node
}

// ConcatRows returns a stacked on top of b (equal column counts).
func (t *Tape) ConcatRows(a, b *Value) *Value {
	if a.M.Cols != b.M.Cols {
		panic(fmt.Sprintf("autodiff: concatRows cols %d vs %d", a.M.Cols, b.M.Cols))
	}
	out := tensor.New(a.M.Rows+b.M.Rows, a.M.Cols)
	copy(out.Data[:len(a.M.Data)], a.M.Data)
	copy(out.Data[len(a.M.Data):], b.M.Data)
	node := t.node(out, nil)
	node.back = func() {
		ga, gb := a.ensureGrad(), b.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += node.grad.Data[i]
		}
		for i := range gb.Data {
			gb.Data[i] += node.grad.Data[len(ga.Data)+i]
		}
	}
	return node
}

// PermuteRows returns the matrix whose row i is a's row perm[i]. perm must
// be a permutation of the row indices; used for NeuroSAT's literal flip.
func (t *Tape) PermuteRows(a *Value, perm []int) *Value {
	if len(perm) != a.M.Rows {
		panic(fmt.Sprintf("autodiff: permutation length %d for %d rows", len(perm), a.M.Rows))
	}
	out := tensor.New(a.M.Rows, a.M.Cols)
	for i, p := range perm {
		copy(out.Row(i), a.M.Row(p))
	}
	node := t.node(out, nil)
	node.back = func() {
		g := a.ensureGrad()
		for i, p := range perm {
			grow := node.grad.Row(i)
			garow := g.Row(p)
			for j, v := range grow {
				garow[j] += v
			}
		}
	}
	return node
}

// BCEWithLogits returns the numerically stable binary cross-entropy between
// a 1×1 logit z and target y ∈ [0,1]:
//
//	loss = max(z,0) − z·y + log(1+e^(−|z|))
//
// The gradient with respect to z is σ(z) − y.
func (t *Tape) BCEWithLogits(z *Value, y float64) *Value {
	if z.M.Rows != 1 || z.M.Cols != 1 {
		panic("autodiff: BCEWithLogits expects a 1×1 logit")
	}
	zz := z.M.Data[0]
	loss := math.Max(zz, 0) - zz*y + math.Log1p(math.Exp(-math.Abs(zz)))
	out := t.node(tensor.FromSlice(1, 1, []float64{loss}), nil)
	out.back = func() {
		z.ensureGrad().Data[0] += out.grad.Data[0] * (sigmoid(zz) - y)
	}
	return out
}

// MeanScalar reduces an arbitrary matrix to the 1×1 mean of its entries.
func (t *Tape) MeanScalar(a *Value) *Value {
	s := 0.0
	for _, v := range a.M.Data {
		s += v
	}
	n := float64(len(a.M.Data))
	out := t.node(tensor.FromSlice(1, 1, []float64{s / n}), nil)
	out.back = func() {
		g := a.ensureGrad()
		gv := out.grad.Data[0] / n
		for i := range g.Data {
			g.Data[i] += gv
		}
	}
	return out
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
