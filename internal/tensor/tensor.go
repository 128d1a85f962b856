// Package tensor provides dense row-major float64 matrices and a read-only
// sparse matrix, with the operations needed by the NeuroSelect models:
// matrix products, elementwise arithmetic, reductions, and Frobenius norms.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps existing data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d×%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// sameShape panics unless a and b have identical dimensions.
func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// dstShape panics unless dst is rows×cols.
func dstShape(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s destination %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// MatMul returns a × b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto stores a × b in dst, which must be a.Rows×b.Cols and must not
// share storage with a or b. Each output element sums its products in
// increasing inner index, skipping the zero entries of a.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dstShape("matmul", dst, a.Rows, b.Cols)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulT returns a × bᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT inner mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s := 0.0
			for k := range arow {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// TMatMul returns aᵀ × b.
func TMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto stores aᵀ × b in dst, which must be a.Cols×b.Cols and must
// not share storage with a or b. Each output element sums its products in
// increasing row index of a and b, skipping the zero entries of a, so the
// result equals MatMul(Transpose(a), b) bit for bit.
func TMatMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul inner mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dstShape("tmatmul", dst, a.Cols, b.Cols)
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameShape("add", a, b)
	out := a.Clone()
	AddInPlace(out, b)
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	sameShape("add", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Sub returns a − b.
func Sub(a, b *Matrix) *Matrix {
	sameShape("sub", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s·a.
func Scale(a *Matrix, s float64) *Matrix {
	out := a.Clone()
	ScaleInPlace(out, s)
	return out
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Matrix, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AddScalarInPlace adds c to every element of a.
func AddScalarInPlace(a *Matrix, c float64) {
	for i := range a.Data {
		a.Data[i] += c
	}
}

// ReciprocalInPlace replaces every element x of a with 1/x.
func ReciprocalInPlace(a *Matrix) {
	for i, v := range a.Data {
		a.Data[i] = 1 / v
	}
}

// ReLUInPlace replaces every element of a that is not positive (NaN
// included) with 0.
func ReLUInPlace(a *Matrix) {
	for i, v := range a.Data {
		if !(v > 0) {
			a.Data[i] = 0
		}
	}
}

// Hadamard returns the elementwise product a ⊙ b.
func Hadamard(a, b *Matrix) *Matrix {
	sameShape("hadamard", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// AddRowBroadcast returns a with the 1×Cols row vector r added to each row.
func AddRowBroadcast(a, r *Matrix) *Matrix {
	out := a.Clone()
	AddRowBroadcastInPlace(out, r)
	return out
}

// AddRowBroadcastInPlace adds the 1×Cols row vector r to each row of a.
func AddRowBroadcastInPlace(a, r *Matrix) {
	if r.Rows != 1 || r.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: broadcast shape %dx%d onto %dx%d", r.Rows, r.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range r.Data {
			row[j] += v
		}
	}
}

// RowScaleInPlace multiplies row i of a by d[i], where d is Rows×1.
func RowScaleInPlace(a, d *Matrix) {
	if d.Cols != 1 || d.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: rowscale needs a %dx1 scale, got %dx%d", a.Rows, d.Rows, d.Cols))
	}
	for i, s := range d.Data {
		row := a.Row(i)
		for j, v := range row {
			row[j] = v * s
		}
	}
}

// ColSums returns the 1×Cols vector of column sums.
func ColSums(a *Matrix) *Matrix {
	out := New(1, a.Cols)
	ColSumsInto(out, a)
	return out
}

// ColSumsInto stores the column sums of a in the 1×Cols matrix dst, which
// must not share storage with a. Each sum runs over the rows in order.
func ColSumsInto(dst, a *Matrix) {
	dstShape("colsums", dst, 1, a.Cols)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}

// RowMean returns the 1×Cols mean of the rows.
func RowMean(a *Matrix) *Matrix {
	out := New(1, a.Cols)
	RowMeanInto(out, a)
	return out
}

// RowMeanInto stores the 1×Cols mean of the rows of a in dst, which must
// not share storage with a: the column sums scaled by 1/Rows (left at zero
// when a has no rows).
func RowMeanInto(dst, a *Matrix) {
	ColSumsInto(dst, a)
	if a.Rows > 0 {
		ScaleInPlace(dst, 1.0/float64(a.Rows))
	}
}

// Frobenius returns the Frobenius norm ‖a‖_F.
func Frobenius(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Apply returns f applied elementwise.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := a.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Xavier fills the matrix with Glorot-uniform values drawn from rng.
func (m *Matrix) Xavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MaxAbsDiff returns max |a−b| elementwise; useful in tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	sameShape("maxabsdiff", a, b)
	d := 0.0
	for i := range a.Data {
		if x := math.Abs(a.Data[i] - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}
