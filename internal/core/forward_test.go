package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/gen"
	"neuroselect/internal/nn"
	"neuroselect/internal/satgraph"
)

// quickScaleConfig is experiments.QuickScale().Model, the selector the
// service benchmark trains and serves (core cannot import experiments).
var quickScaleConfig = Config{Hidden: 8, HGTLayers: 1, MPLayers: 2, Attention: true, Seed: 3}

// forwardConfigs are the architectures the forward pass is checked on.
var forwardConfigs = []struct {
	name string
	cfg  Config
}{
	{"quick", quickScaleConfig},
	{"default", DefaultConfig()},
	{"paper", PaperConfig()},
	{"no-attention", Config{Hidden: 12, HGTLayers: 2, MPLayers: 2, Attention: false, Seed: 4}},
}

// forwardFormulas returns one fixed formula from every generator family,
// draws of the training mixture at the scale the service benchmark uses,
// and the graph corner cases: no nodes at all, clause nodes but no
// variable nodes, and variables that occur in no clause.
func forwardFormulas() []*cnf.Formula {
	fs := []*cnf.Formula{
		gen.RandomKSAT(60, 255, 3, 1).F,
		gen.Pigeonhole(5).F,
		gen.ParityChain(20, 12, 3, true, 2).F,
		gen.Miter(5, 20, false, 3).F,
		gen.BMCCounter(4, 6, 9).F,
		gen.Tseitin(10, 3, false, 4).F,
		gen.GraphColoring(10, 24, 3, 5).F,
		gen.NQueens(6).F,
		gen.CommunityKSAT(80, 336, 3, 4, 0.85, 6).F,
		gen.PowerLawKSAT(80, 336, 3, 0.9, 7).F,
		gen.SubsetSum(6, 15, true, 8).F,
	}
	for seed := int64(1); seed <= 6; seed++ {
		fs = append(fs, dataset.Generate(seed, 0.75).F)
	}
	noClauseVars := cnf.New(0)
	noClauseVars.MustAddClause()
	isolated := cnf.New(6)
	isolated.MustAddClause(1, -2, 3)
	isolated.MustAddClause(-1, 1, 2)
	isolated.MustAddClause(-3)
	return append(fs, cnf.New(0), noClauseVars, isolated)
}

// tapeLogit is the reference: Logit on a fresh autodiff tape.
func tapeLogit(m *Model, g *satgraph.VCG) float64 {
	t := autodiff.NewTape()
	m.Params.Bind(t)
	return m.Logit(t, g).M.Data[0]
}

// TestPredictGraphBits pins the exact output bits of PredictGraph for every
// checked architecture and formula, as sigmoid(Logit) on a fresh tape
// computed them, so a change to the inference path cannot move a single
// policy choice.
func TestPredictGraphBits(t *testing.T) {
	want := map[string][]uint64{
		"quick": {
			0x3fda91b86cb474ab, 0x3fdb671ed66a8957, 0x3fda173259b8469c, 0x3fda5cf806516420,
			0x3fda77c6ece3f786, 0x3fdaa7726ae36836, 0x3fdbdea5c0e1296b, 0x3fdd2bd0592525da,
			0x3fdabb41fad3d895, 0x3fdb3403f9c47f4f, 0x3fd9fd7c3a9e21e6, 0x3fdbf9063e0e2943,
			0x3fd9ca247e71696c, 0x3fdacf8cb72e467c, 0x3fda99d8b2b50efd, 0x3fda2f7900eb6703,
			0x3fdaae45a6b0a7fb, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fd96519505ae0c9,
		},
		"default": {
			0x3fdb32088fab7c53, 0x3fd4b0d705d49eac, 0x3fdb24a2c1a78908, 0x3fda29820b55494f,
			0x3fda59d0f7f5e378, 0x3fdb6d19ea61b9e0, 0x3fd46f11f436c477, 0x3fd3f56c06818016,
			0x3fdb276529c0945f, 0x3fdbe4d033c6d77d, 0x3fdad23fba62c6d2, 0x3fd463d1dd98d0bb,
			0x3fdc4d20b3e18620, 0x3fdbbca45e7f61a2, 0x3fdb68488e24cebb, 0x3fda976e116aed7a,
			0x3fdbb46d20a1fa38, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fdc8fa5e8127ef0,
		},
		"paper": {
			0x3fde201ef6d90bcc, 0x3fd4e1f8ae48d24d, 0x3fde8bf26c4edc8d, 0x3fdcfa66310ee5b8,
			0x3fdd896899735a31, 0x3fdea2bc44ac7379, 0x3fd3aabf9dd187a6, 0x3fd176b54948b7e2,
			0x3fde29afab9ec8b2, 0x3fdd897117797deb, 0x3fdded96cab53d8c, 0x3fd3756b98588b65,
			0x3fdf42cd00b270f7, 0x3fde9b5e7a711d1d, 0x3fde35507d0c34de, 0x3fddc9c28b058c8b,
			0x3fde4bdca69cb667, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fde7ae6dc6027fa,
		},
		"no-attention": {
			0x3fdd5421722a60bb, 0x3fe0026f66b4b678, 0x3fddfb6ab86838cf, 0x3fde712062009f35,
			0x3fddd474636c5e2c, 0x3fdcfd4b969176f5, 0x3fe03374c7c79696, 0x3fe09ca525c87dfd,
			0x3fdd2c25c5c257b5, 0x3fdd0d9a42287163, 0x3fde5ae6b4482e40, 0x3fe03d02ec9d1155,
			0x3fdd88f2198111b5, 0x3fdcacf0b3fdb44f, 0x3fdd45c68ed3859e, 0x3fde29189298f5ea,
			0x3fdd20b146ff5e70, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fde1a2954ea2060,
		},
	}
	fs := forwardFormulas()
	for _, c := range forwardConfigs {
		m := NewModel(c.cfg)
		for i, f := range fs {
			got := math.Float64bits(m.PredictGraph(satgraph.BuildVCG(f)))
			if got != want[c.name][i] {
				t.Errorf("%s formula %d: PredictGraph bits %#016x, want %#016x", c.name, i, got, want[c.name][i])
			}
		}
	}
}

func TestForwardMatchesTape(t *testing.T) {
	fs := forwardFormulas()
	for _, c := range forwardConfigs {
		m := NewModel(c.cfg)
		for i, f := range fs {
			g := satgraph.BuildVCG(f)
			want := tapeLogit(m, g)
			if got := m.forward(new(scratch), g); got != want {
				t.Errorf("%s formula %d: forward logit %v, tape %v", c.name, i, got, want)
			}
			if got := m.PredictGraph(g); got != sigmoid(want) {
				t.Errorf("%s formula %d: PredictGraph %v, sigmoid(tape) %v", c.name, i, got, sigmoid(want))
			}
		}
	}
}

// TestForwardZeroAttentionNorm zeroes the attention query and key
// projections, so Q and K are zero matrices and the Frobenius
// normalisation takes its zero branch on both paths.
func TestForwardZeroAttentionNorm(t *testing.T) {
	m := NewModel(DefaultConfig())
	for _, hl := range m.layers {
		for _, l := range []*nn.Linear{hl.attn.q, hl.attn.k} {
			clear(l.W.M.Data)
			clear(l.B.M.Data)
		}
	}
	for i, f := range forwardFormulas() {
		g := satgraph.BuildVCG(f)
		if got, want := m.PredictGraph(g), sigmoid(tapeLogit(m, g)); got != want {
			t.Errorf("formula %d: PredictGraph %v, sigmoid(tape) %v", i, got, want)
		}
	}
}

// TestPredictGraphConcurrent runs inference from 8 goroutines on one model
// over graphs of mixed sizes, so pooled scratch is grown, shared between
// goroutines and reused at other sizes; every result must equal the serial
// one.
func TestPredictGraphConcurrent(t *testing.T) {
	m := NewModel(quickScaleConfig)
	var graphs []*satgraph.VCG
	for i := 0; i < 40; i++ {
		n := 10 + 37*(i%7)
		graphs = append(graphs, satgraph.BuildVCG(gen.RandomKSAT(n, 4*n, 3, int64(i)).F))
	}
	want := make([]float64, len(graphs))
	for i, g := range graphs {
		want[i] = m.PredictGraph(g)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(graphs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range graphs {
				i := (j + 5*w) % len(graphs)
				if got := m.PredictGraph(graphs[i]); got != want[i] {
					errs <- fmt.Errorf("goroutine %d graph %d: %v, serial %v", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPredictGraphAllocs checks that a warmed model's inference costs the
// same small, size-independent number of allocations: the per-call
// buffers come from the pool, not the heap.
func TestPredictGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool puts, so allocation counts vary")
	}
	m := NewModel(quickScaleConfig)
	small := satgraph.BuildVCG(gen.RandomKSAT(100, 426, 3, 1).F)
	large := satgraph.BuildVCG(gen.RandomKSAT(3000, 12780, 3, 2).F)
	m.PredictGraph(large)
	a := testing.AllocsPerRun(20, func() { m.PredictGraph(small) })
	b := testing.AllocsPerRun(20, func() { m.PredictGraph(large) })
	if a != b || a > 10 {
		t.Fatalf("allocs per PredictGraph: %v on 100 variables, %v on 3000; want the same count, at most 10", a, b)
	}
}
