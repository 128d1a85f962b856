package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 7 {
		t.Fatal("Row view")
	}
	m.Row(0)[0] = 5
	if m.At(0, 0) != 5 {
		t.Fatal("Row must share storage")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone must copy storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	ab := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if ab.Data[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, ab.Data[i], w)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 3, 5)
	b := randMat(rng, 5, 4)
	// MatMulT(a, bᵀ) == a×b and TMatMul(aᵀ, b)… construct accordingly.
	bt := Transpose(b)
	if d := MaxAbsDiff(MatMul(a, b), MatMulT(a, bt)); d > 1e-12 {
		t.Fatalf("MatMulT disagrees: %g", d)
	}
	at := Transpose(a)
	if d := MaxAbsDiff(MatMul(a, b), TMatMul(at, b)); d > 1e-12 {
		t.Fatalf("TMatMul disagrees: %g", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MatMul(New(2, 3), New(2, 3)) },
		func() { MatMulT(New(2, 3), New(2, 4)) },
		func() { TMatMul(New(2, 3), New(3, 2)) },
		func() { Add(New(2, 3), New(3, 2)) },
		func() { Hadamard(New(1, 1), New(1, 2)) },
		func() { AddRowBroadcast(New(2, 3), New(2, 3)) },
		func() { FromSlice(2, 2, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			fn()
		}()
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, -2, 3})
	b := FromSlice(1, 3, []float64{4, 5, -6})
	if got := Add(a, b).Data; got[0] != 5 || got[1] != 3 || got[2] != -3 {
		t.Fatalf("add = %v", got)
	}
	if got := Sub(a, b).Data; got[0] != -3 || got[1] != -7 || got[2] != 9 {
		t.Fatalf("sub = %v", got)
	}
	if got := Hadamard(a, b).Data; got[0] != 4 || got[1] != -10 || got[2] != -18 {
		t.Fatalf("hadamard = %v", got)
	}
	if got := Scale(a, -2).Data; got[0] != -2 || got[1] != 4 || got[2] != -6 {
		t.Fatalf("scale = %v", got)
	}
	if got := Apply(a, math.Abs).Data; got[1] != 2 {
		t.Fatalf("apply = %v", got)
	}
	// Originals untouched.
	if a.Data[0] != 1 || b.Data[0] != 4 {
		t.Fatal("ops must not mutate inputs")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	cs := ColSums(a)
	if cs.Rows != 1 || cs.Data[0] != 5 || cs.Data[1] != 7 || cs.Data[2] != 9 {
		t.Fatalf("colsums = %v", cs.Data)
	}
	rm := RowMean(a)
	if rm.Data[0] != 2.5 || rm.Data[1] != 3.5 || rm.Data[2] != 4.5 {
		t.Fatalf("rowmean = %v", rm.Data)
	}
	if f := Frobenius(FromSlice(1, 2, []float64{3, 4})); f != 5 {
		t.Fatalf("frobenius = %v", f)
	}
}

func TestAddRowBroadcast(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := FromSlice(1, 2, []float64{10, 20})
	out := AddRowBroadcast(a, r)
	want := []float64{11, 22, 13, 24}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("broadcast[%d] = %v", i, out.Data[i])
		}
	}
}

func TestTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		return MaxAbsDiff(Transpose(Transpose(a)), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributiveProperty(t *testing.T) {
	// a×(b+c) == a×b + a×c
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, k := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := randMat(rng, n, m)
		b := randMat(rng, m, k)
		c := randMat(rng, m, k)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(10, 20)
	m.Xavier(rng)
	limit := math.Sqrt(6.0 / 30.0)
	nonzero := 0
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %v out of ±%v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatal("xavier left too many zeros")
	}
}

func TestZero(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	m.Zero()
	if m.Data[0] != 0 || m.Data[1] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestSparseSpMM(t *testing.T) {
	s := NewSparse(2, 3)
	s.Add(0, 0, 2)
	s.Add(0, 2, -1)
	s.Add(1, 1, 0.5)
	d := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	out := SpMM(s, d)
	// row0 = 2*(1,2) - (5,6) = (-3, -2); row1 = 0.5*(3,4) = (1.5, 2)
	want := []float64{-3, -2, 1.5, 2}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("spmm[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	if s.NNZ() != 3 {
		t.Fatalf("nnz = %d", s.NNZ())
	}
}

func TestSpMMTMatchesDenseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSparse(4, 5)
	for i := 0; i < 8; i++ {
		s.Add(rng.Intn(4), rng.Intn(5), rng.NormFloat64())
	}
	dense := New(4, 5)
	for i, row := range s.Entries {
		for _, e := range row {
			dense.Data[i*5+e.Col] += e.W
		}
	}
	d := randMat(rng, 4, 3)
	if diff := MaxAbsDiff(SpMMT(s, d), MatMul(Transpose(dense), d)); diff > 1e-12 {
		t.Fatalf("SpMMT mismatch: %g", diff)
	}
	d2 := randMat(rng, 5, 3)
	if diff := MaxAbsDiff(SpMM(s, d2), MatMul(dense, d2)); diff > 1e-12 {
		t.Fatalf("SpMM mismatch: %g", diff)
	}
}

func TestSparseBounds(t *testing.T) {
	s := NewSparse(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	s.Add(2, 0, 1)
}

func TestSparseDuplicateEntriesAccumulate(t *testing.T) {
	s := NewSparse(1, 1)
	s.Add(0, 0, 1)
	s.Add(0, 0, 2)
	d := FromSlice(1, 1, []float64{10})
	if out := SpMM(s, d); out.Data[0] != 30 {
		t.Fatalf("duplicates should accumulate: %v", out.Data[0])
	}
}

func TestTransposeMatMulIdentity(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		b := randMat(rng, a.Cols, 1+rng.Intn(5))
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrobeniusScaling(t *testing.T) {
	// ‖c·A‖ == |c|·‖A‖
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 4, 5)
	if math.Abs(Frobenius(Scale(a, -3))-3*Frobenius(a)) > 1e-9 {
		t.Fatal("Frobenius homogeneity")
	}
}

// sparseMat is randMat with about a third of its entries zeroed, so the
// products' zero skip is exercised.
func sparseMat(rng *rand.Rand, r, c int) *Matrix {
	m := randMat(rng, r, c)
	for i := range m.Data {
		if rng.Intn(3) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// garbage returns a rows×cols matrix full of NaN: an Into destination's
// old contents must never leak into its result.
func garbage(r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// sameBits reports whether a and b are equal element by element, bit for
// bit.
func sameBits(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestTMatMulEqualsTransposedMatMul: aᵀ×b sums every output element over
// the rows in the same order, with the same zero skip, as MatMul on the
// transpose, so the two agree bit for bit.
func TestTMatMulEqualsTransposedMatMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := sparseMat(rng, 1+rng.Intn(40), 1+rng.Intn(9))
		b := randMat(rng, a.Rows, 1+rng.Intn(9))
		return sameBits(TMatMul(a, b), MatMul(Transpose(a), b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := sparseMat(rng, 7, 5)
	b := randMat(rng, 5, 4)
	c := randMat(rng, 7, 4)
	s := NewSparse(6, 7)
	for i := 0; i < 20; i++ {
		s.Add(rng.Intn(6), rng.Intn(7), rng.NormFloat64())
	}
	dst := garbage(7, 4)
	MatMulInto(dst, a, b)
	if !sameBits(dst, MatMul(a, b)) {
		t.Error("MatMulInto")
	}
	dst = garbage(5, 4)
	TMatMulInto(dst, a, c)
	if !sameBits(dst, TMatMul(a, c)) {
		t.Error("TMatMulInto")
	}
	dst = garbage(6, 4)
	SpMMInto(dst, s, c)
	if !sameBits(dst, SpMM(s, c)) {
		t.Error("SpMMInto")
	}
	dst = garbage(1, 4)
	ColSumsInto(dst, c)
	if !sameBits(dst, ColSums(c)) {
		t.Error("ColSumsInto")
	}
	dst = garbage(1, 4)
	RowMeanInto(dst, c)
	if !sameBits(dst, RowMean(c)) {
		t.Error("RowMeanInto")
	}
	dst = garbage(1, 4)
	RowMeanInto(dst, New(0, 4))
	if !sameBits(dst, New(1, 4)) {
		t.Error("RowMeanInto of no rows must be zero")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, -2, 0, math.Copysign(0, -1), math.NaN(), 4})
	ReLUInPlace(a)
	for i, w := range []float64{1, 0, 0, 0, 0, 4} {
		if math.Float64bits(a.Data[i]) != math.Float64bits(w) {
			t.Fatalf("relu[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a = FromSlice(2, 2, []float64{1, 2, 4, -8})
	AddScalarInPlace(a, 1)
	ReciprocalInPlace(a)
	RowScaleInPlace(a, FromSlice(2, 1, []float64{2, 3}))
	ScaleInPlace(a, 10)
	AddRowBroadcastInPlace(a, FromSlice(1, 2, []float64{1, -1}))
	for i, w := range []float64{1 + 10*2.0/2, 10*2.0/3 - 1, 1 + 10*3.0/5, 10*3.0/-7 - 1} {
		if math.Abs(a.Data[i]-w) > 1e-12 {
			t.Fatalf("in-place chain [%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestIntoShapePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MatMulInto(New(2, 2), New(2, 3), New(3, 3)) },
		func() { TMatMulInto(New(3, 3), New(2, 3), New(2, 2)) },
		func() { SpMMInto(New(3, 2), NewSparse(2, 2), New(2, 2)) },
		func() { ColSumsInto(New(2, 3), New(2, 3)) },
		func() { RowScaleInPlace(New(2, 3), New(3, 1)) },
		func() { AddRowBroadcastInPlace(New(2, 3), New(1, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			fn()
		}()
	}
}
