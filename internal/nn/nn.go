// Package nn provides neural-network building blocks over the autodiff
// tape: parameter registries, linear layers, MLPs, an LSTM cell, the Adam
// optimizer, and parameter (de)serialization.
package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/tensor"
)

// Param is a named trainable matrix with Adam moment state.
type Param struct {
	Name string
	M    *tensor.Matrix

	m, v *tensor.Matrix // Adam first/second moments
}

// Params is a registry of trainable parameters. During a forward pass the
// registry is bound to a tape, producing one leaf Value per parameter;
// gradients accumulate on those leaves and are consumed by the optimizer.
type Params struct {
	list  []*Param
	byN   map[string]*Param
	bound map[*Param]*autodiff.Value
}

// NewParams returns an empty registry.
func NewParams() *Params {
	return &Params{byN: map[string]*Param{}}
}

// New registers a rows×cols parameter initialized by init ("xavier" or
// "zero").
func (p *Params) New(name string, rows, cols int, init string, rng *rand.Rand) *Param {
	if _, dup := p.byN[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	m := tensor.New(rows, cols)
	switch init {
	case "xavier":
		m.Xavier(rng)
	case "zero":
	default:
		panic(fmt.Sprintf("nn: unknown init %q", init))
	}
	par := &Param{Name: name, M: m, m: tensor.New(rows, cols), v: tensor.New(rows, cols)}
	p.list = append(p.list, par)
	p.byN[name] = par
	return par
}

// Bind attaches every parameter to the tape as a leaf, resetting gradient
// accumulation for the new forward pass.
func (p *Params) Bind(t *autodiff.Tape) {
	p.bound = make(map[*Param]*autodiff.Value, len(p.list))
	for _, par := range p.list {
		p.bound[par] = t.Leaf(par.M)
	}
}

// V returns the tape leaf bound to the parameter; Bind must have been
// called for the current tape.
func (p *Params) V(par *Param) *autodiff.Value {
	v, ok := p.bound[par]
	if !ok {
		panic(fmt.Sprintf("nn: parameter %q not bound; call Params.Bind first", par.Name))
	}
	return v
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, par := range p.list {
		n += len(par.M.Data)
	}
	return n
}

// GradNorm returns the L2 norm of all bound gradients; useful for
// monitoring training.
func (p *Params) GradNorm() float64 {
	s := 0.0
	for _, par := range p.list {
		if g := p.bound[par].Grad(); g != nil {
			for _, v := range g.Data {
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// Linear is a dense layer y = xW + b.
type Linear struct {
	W, B *Param
}

// NewLinear registers a Linear layer's parameters under the given name
// prefix.
func NewLinear(p *Params, name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		W: p.New(name+".W", in, out, "xavier", rng),
		B: p.New(name+".B", 1, out, "zero", rng),
	}
}

// Apply computes xW + b on the tape.
func (l *Linear) Apply(p *Params, t *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	return t.AddRowBroadcast(t.MatMul(x, p.V(l.W)), p.V(l.B))
}

// MLP is a stack of Linear layers with ReLU between them (none after the
// final layer).
type MLP struct {
	Layers []*Linear
}

// NewMLP registers an MLP with the given layer dimensions, e.g.
// dims = [32, 32, 1] produces Linear(32→32), ReLU, Linear(32→1).
func NewMLP(p *Params, name string, dims []int, rng *rand.Rand) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least two dimensions")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(p, fmt.Sprintf("%s.%d", name, i), dims[i], dims[i+1], rng))
	}
	return m
}

// Apply runs the MLP on the tape.
func (m *MLP) Apply(p *Params, t *autodiff.Tape, x *autodiff.Value) *autodiff.Value {
	for i, l := range m.Layers {
		x = l.Apply(p, t, x)
		if i+1 < len(m.Layers) {
			x = t.ReLU(x)
		}
	}
	return x
}

// LSTMCell is a standard LSTM cell over row-vector states. The input and
// hidden state are concatenated and passed through four gate layers.
type LSTMCell struct {
	Wi, Wf, Wo, Wg *Linear
	Hidden         int
}

// NewLSTMCell registers an LSTM cell with the given input and hidden sizes.
func NewLSTMCell(p *Params, name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	return &LSTMCell{
		Wi:     NewLinear(p, name+".i", in+hidden, hidden, rng),
		Wf:     NewLinear(p, name+".f", in+hidden, hidden, rng),
		Wo:     NewLinear(p, name+".o", in+hidden, hidden, rng),
		Wg:     NewLinear(p, name+".g", in+hidden, hidden, rng),
		Hidden: hidden,
	}
}

// Apply advances the cell one step for a batch of rows: x is N×in, h and c
// are N×hidden. It returns the new hidden and cell states.
func (l *LSTMCell) Apply(p *Params, t *autodiff.Tape, x, h, c *autodiff.Value) (hNew, cNew *autodiff.Value) {
	xh := t.ConcatCols(x, h)
	i := t.Sigmoid(l.Wi.Apply(p, t, xh))
	f := t.Sigmoid(l.Wf.Apply(p, t, xh))
	o := t.Sigmoid(l.Wo.Apply(p, t, xh))
	g := t.Tanh(l.Wg.Apply(p, t, xh))
	cNew = t.Add(t.Hadamard(f, c), t.Hadamard(i, g))
	hNew = t.Hadamard(o, t.Tanh(cNew))
	return hNew, cNew
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	ClipMax float64 // global gradient-norm clip; 0 disables
	step    int
}

// NewAdam returns an Adam optimizer with the standard defaults and the
// given learning rate (the paper uses 1e-4).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipMax: 5}
}

// Step applies one Adam update using the gradients bound on the current
// tape, then leaves the parameters ready for the next Bind.
func (a *Adam) Step(p *Params) {
	a.step++
	scale := 1.0
	if a.ClipMax > 0 {
		if n := p.GradNorm(); n > a.ClipMax {
			scale = a.ClipMax / n
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, par := range p.list {
		g := p.bound[par].Grad()
		if g == nil {
			continue
		}
		for i := range par.M.Data {
			gi := g.Data[i] * scale
			par.m.Data[i] = a.Beta1*par.m.Data[i] + (1-a.Beta1)*gi
			par.v.Data[i] = a.Beta2*par.v.Data[i] + (1-a.Beta2)*gi*gi
			mhat := par.m.Data[i] / bc1
			vhat := par.v.Data[i] / bc2
			par.M.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// savedParam is the JSON wire form of one parameter.
type savedParam struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// Save serializes all parameters as JSON.
func (p *Params) Save(w io.Writer) error {
	out := make([]savedParam, 0, len(p.list))
	for _, par := range p.list {
		out = append(out, savedParam{Name: par.Name, Rows: par.M.Rows, Cols: par.M.Cols, Data: par.M.Data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load restores parameter values saved by Save. The stream must hold every
// registered parameter exactly once, each with its registered shape and
// rows×cols values; otherwise Load returns an error and changes nothing.
func (p *Params) Load(r io.Reader) error {
	var in []savedParam
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	seen := make(map[string]bool, len(in))
	for _, sp := range in {
		par, ok := p.byN[sp.Name]
		if !ok {
			return fmt.Errorf("nn: load: unknown parameter %q", sp.Name)
		}
		if seen[sp.Name] {
			return fmt.Errorf("nn: load: parameter %q stored twice", sp.Name)
		}
		seen[sp.Name] = true
		if par.M.Rows != sp.Rows || par.M.Cols != sp.Cols {
			return fmt.Errorf("nn: load: shape mismatch for %q: have %dx%d, stored %dx%d",
				sp.Name, par.M.Rows, par.M.Cols, sp.Rows, sp.Cols)
		}
		if len(sp.Data) != len(par.M.Data) {
			return fmt.Errorf("nn: load: %q stores %d values for a %dx%d parameter",
				sp.Name, len(sp.Data), sp.Rows, sp.Cols)
		}
	}
	for _, par := range p.list {
		if !seen[par.Name] {
			return fmt.Errorf("nn: load: parameter %q missing", par.Name)
		}
	}
	for _, sp := range in {
		copy(p.byN[sp.Name].M.Data, sp.Data)
	}
	return nil
}
