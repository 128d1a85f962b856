package core

import (
	"testing"

	"neuroselect/internal/autodiff"
	"neuroselect/internal/gen"
	"neuroselect/internal/satgraph"
)

// BenchmarkInference measures the one-time model call the portfolio pays
// per instance (the quantity plotted in Figure 7(b)), at the experiments'
// default model and at the QuickScale model the service benchmark serves.
// The parallel variant runs one shared model from every P: with no lock
// around inference, its ns/op falls with GOMAXPROCS.
func BenchmarkInference(b *testing.B) {
	g := satgraph.BuildVCG(gen.RandomKSAT(200, 852, 3, 1).F)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Hidden: 16, HGTLayers: 2, MPLayers: 2, Attention: true, Seed: 1}},
		{"served", quickScaleConfig},
	} {
		m := NewModel(c.cfg)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PredictGraph(g)
			}
		})
		b.Run(c.name+"-parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					m.PredictGraph(g)
				}
			})
		})
	}
}

// BenchmarkTrainStep measures one forward+backward+Adam step.
func BenchmarkTrainStep(b *testing.B) {
	m := NewModel(Config{Hidden: 16, HGTLayers: 2, MPLayers: 2, Attention: true, Seed: 1})
	g := satgraph.BuildVCG(gen.RandomKSAT(200, 852, 3, 1).F)
	samples := []Sample{{Name: "bench", G: g, Label: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, samples, TrainConfig{Epochs: 1, LR: 1e-3, Seed: int64(i)})
	}
}

// BenchmarkGraphBuild measures CNF→VCG conversion.
func BenchmarkGraphBuild(b *testing.B) {
	f := gen.RandomKSAT(500, 2130, 3, 2).F
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		satgraph.BuildVCG(f)
	}
}

// BenchmarkBackward isolates the reverse pass.
func BenchmarkBackward(b *testing.B) {
	m := NewModel(Config{Hidden: 16, HGTLayers: 1, MPLayers: 2, Attention: true, Seed: 1})
	g := satgraph.BuildVCG(gen.RandomKSAT(200, 852, 3, 1).F)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := autodiff.NewTape()
		m.Params.Bind(t)
		loss := t.BCEWithLogits(m.Logit(t, g), 1)
		t.Backward(loss)
	}
}
