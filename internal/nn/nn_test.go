package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/tensor"
)

func TestParamRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParams()
	a := p.New("a", 2, 3, "xavier", rng)
	b := p.New("b", 1, 3, "zero", rng)
	if p.Count() != 9 {
		t.Fatalf("count = %d", p.Count())
	}
	for _, v := range b.M.Data {
		if v != 0 {
			t.Fatal("zero init")
		}
	}
	nz := 0
	for _, v := range a.M.Data {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("xavier init left all zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	p.New("a", 1, 1, "zero", rng)
}

func TestBindRequired(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParams()
	par := p.New("w", 1, 1, "xavier", rng)
	defer func() {
		if recover() == nil {
			t.Fatal("V before Bind must panic")
		}
	}()
	p.V(par)
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParams()
	l := NewLinear(p, "lin", 2, 3, rng)
	// Set known weights.
	copy(l.W.M.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(l.B.M.Data, []float64{0.5, -0.5, 1})
	tp := autodiff.NewTape()
	p.Bind(tp)
	x := tp.Leaf(tensor.FromSlice(1, 2, []float64{1, 1}))
	out := l.Apply(p, tp, x)
	want := []float64{1 + 4 + 0.5, 2 + 5 - 0.5, 3 + 6 + 1}
	for i, w := range want {
		if math.Abs(out.M.Data[i]-w) > 1e-12 {
			t.Fatalf("linear[%d] = %v, want %v", i, out.M.Data[i], w)
		}
	}
}

func TestMLPShapesAndReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParams()
	m := NewMLP(p, "mlp", []int{4, 8, 1}, rng)
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	tp := autodiff.NewTape()
	p.Bind(tp)
	x := tp.Leaf(tensor.New(5, 4))
	out := m.Apply(p, tp, x)
	if out.M.Rows != 5 || out.M.Cols != 1 {
		t.Fatalf("mlp out %dx%d", out.M.Rows, out.M.Cols)
	}
}

func TestMLPNeedsTwoDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1-dim MLP")
		}
	}()
	NewMLP(NewParams(), "m", []int{3}, rand.New(rand.NewSource(1)))
}

// TestAdamConvergesOnQuadratic trains a single parameter to minimize
// (w−3)², checking the optimizer plumbing end to end.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParams()
	w := p.New("w", 1, 1, "xavier", rng)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		tp := autodiff.NewTape()
		p.Bind(tp)
		wv := p.V(w)
		diff := tp.AddScalar(wv, -3)
		loss := tp.MeanScalar(tp.Hadamard(diff, diff))
		tp.Backward(loss)
		opt.Step(p)
	}
	if math.Abs(w.M.Data[0]-3) > 1e-2 {
		t.Fatalf("w = %v, want ≈3", w.M.Data[0])
	}
}

// TestFitFitsMeanOfTargets fits one weight to four targets under squared
// loss: Fit reports each epoch's mean loss in order, returns the last, and
// moves the weight to the targets' mean.
func TestFitFitsMeanOfTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParams()
	w := p.New("w", 1, 1, "xavier", rng)
	targets := []float64{1, 2, 4, 5}
	var epochs []int
	var losses []float64
	last := Fit(p, len(targets), 200, 0.05, 1, func(tp *autodiff.Tape, i int) *autodiff.Value {
		diff := tp.AddScalar(p.V(w), -targets[i])
		return tp.MeanScalar(tp.Hadamard(diff, diff))
	}, func(epoch int, loss float64) {
		epochs = append(epochs, epoch)
		losses = append(losses, loss)
	})
	if len(epochs) != 200 || epochs[0] != 0 || epochs[199] != 199 {
		t.Fatalf("onEpoch saw epochs %v..., want 0..199", epochs[:min(len(epochs), 3)])
	}
	if last != losses[199] || losses[199] >= losses[0] {
		t.Errorf("returned %v; epoch losses %v -> %v, want the last, falling", last, losses[0], losses[199])
	}
	if math.Abs(w.M.Data[0]-3) > 0.2 {
		t.Errorf("w = %v, want ≈3", w.M.Data[0])
	}
}

// TestLSTMLearnsToSum trains an LSTM cell to output the mean of a short
// sequence, exercising the recurrent gradient path.
func TestLSTMLearnsToSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewParams()
	cell := NewLSTMCell(p, "lstm", 1, 4, rng)
	head := NewLinear(p, "head", 4, 1, rng)
	opt := NewAdam(0.02)

	seqs := make([][]float64, 40)
	targets := make([]float64, 40)
	for i := range seqs {
		seqs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		targets[i] = (seqs[i][0] + seqs[i][1] + seqs[i][2]) / 3
	}
	var lastLoss float64
	for epoch := 0; epoch < 60; epoch++ {
		total := 0.0
		for i, seq := range seqs {
			tp := autodiff.NewTape()
			p.Bind(tp)
			h := tp.Leaf(tensor.New(1, 4))
			c := tp.Leaf(tensor.New(1, 4))
			for _, x := range seq {
				xv := tp.Leaf(tensor.FromSlice(1, 1, []float64{x}))
				h, c = cell.Apply(p, tp, xv, h, c)
			}
			out := head.Apply(p, tp, h)
			diff := tp.AddScalar(out, -targets[i])
			loss := tp.MeanScalar(tp.Hadamard(diff, diff))
			tp.Backward(loss)
			opt.Step(p)
			total += loss.M.Data[0]
		}
		lastLoss = total / float64(len(seqs))
	}
	if lastLoss > 0.01 {
		t.Fatalf("LSTM failed to fit mean task: loss %v", lastLoss)
	}
}

func TestGradientClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewParams()
	w := p.New("w", 1, 1, "xavier", rng)
	w.M.Data[0] = 0
	opt := NewAdam(1)
	opt.ClipMax = 1
	tp := autodiff.NewTape()
	p.Bind(tp)
	// loss = 1000·w → gradient 1000, clipped to 1.
	loss := tp.MeanScalar(tp.Scale(p.V(w), 1000))
	tp.Backward(loss)
	if n := p.GradNorm(); math.Abs(n-1000) > 1e-9 {
		t.Fatalf("grad norm = %v", n)
	}
	opt.Step(p)
	// Adam normalizes step size to ≈ lr regardless; the key check is no
	// NaN/Inf and a finite move.
	if math.IsNaN(w.M.Data[0]) || math.IsInf(w.M.Data[0], 0) {
		t.Fatal("step produced non-finite weight")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewParams()
	p.New("a", 2, 2, "xavier", rng)
	p.New("b", 1, 3, "xavier", rng)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := NewParams()
	qa := q.New("a", 2, 2, "zero", rng)
	qb := q.New("b", 1, 3, "zero", rng)
	if err := q.Load(&buf); err != nil {
		t.Fatal(err)
	}
	pa := p.byN["a"]
	pb := p.byN["b"]
	if tensor.MaxAbsDiff(qa.M, pa.M) != 0 || tensor.MaxAbsDiff(qb.M, pb.M) != 0 {
		t.Fatal("load did not restore values")
	}
}

func TestLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewParams()
	p.New("a", 2, 2, "xavier", rng)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Unknown parameter.
	q := NewParams()
	q.New("other", 2, 2, "zero", rng)
	if err := q.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected unknown-parameter error")
	}
	// Shape mismatch.
	r := NewParams()
	r.New("a", 1, 2, "zero", rng)
	if err := r.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected shape error")
	}
	// Corrupt stream.
	s := NewParams()
	if err := s.Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	// A registered parameter absent from the stream, a parameter stored
	// twice, and data shorter or longer than rows×cols: each is an error
	// that leaves the registry unchanged.
	for name, stream := range map[string]string{
		"missing":   `[]`,
		"missing-b": `[{"name":"a","rows":2,"cols":2,"data":[1,2,3,4]}]`,
		"repeated":  `[{"name":"a","rows":2,"cols":2,"data":[1,2,3,4]},{"name":"a","rows":2,"cols":2,"data":[1,2,3,4]},{"name":"b","rows":1,"cols":1,"data":[5]}]`,
		"short":     `[{"name":"a","rows":2,"cols":2,"data":[1,2]},{"name":"b","rows":1,"cols":1,"data":[5]}]`,
		"long":      `[{"name":"a","rows":2,"cols":2,"data":[1,2,3,4,5]},{"name":"b","rows":1,"cols":1,"data":[5]}]`,
	} {
		u := NewParams()
		a := u.New("a", 2, 2, "xavier", rng)
		u.New("b", 1, 1, "zero", rng)
		before := a.M.Clone()
		if err := u.Load(bytes.NewBufferString(stream)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
		if tensor.MaxAbsDiff(a.M, before) != 0 {
			t.Errorf("%s: failed load changed parameter a", name)
		}
	}
	// The complete stream loads.
	v := NewParams()
	v.New("a", 2, 2, "zero", rng)
	if err := v.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("complete stream: %v", err)
	}
}

func TestSharedParamAccumulatesGrad(t *testing.T) {
	// A parameter used twice in one forward must receive both gradient
	// contributions.
	rng := rand.New(rand.NewSource(9))
	p := NewParams()
	w := p.New("w", 1, 1, "xavier", rng)
	w.M.Data[0] = 2
	tp := autodiff.NewTape()
	p.Bind(tp)
	wv := p.V(w)
	// loss = w + w = 2w → dloss/dw = 2.
	loss := tp.MeanScalar(tp.Add(wv, wv))
	tp.Backward(loss)
	if g := wv.Grad().Data[0]; math.Abs(g-2) > 1e-12 {
		t.Fatalf("shared-use grad = %v, want 2", g)
	}
}
