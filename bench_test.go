// Benchmarks regenerating every table and figure of the paper's evaluation
// section (one benchmark per artifact), plus ablation benches for the
// design choices called out in DESIGN.md. Each iteration performs a full
// (quick-scale) regeneration of the artifact; run with -benchtime=1x for a
// single regeneration or via cmd/experiments for the paper-shaped scale.
package neuroselect_test

import (
	"io"
	"testing"

	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/experiments"
	"neuroselect/internal/gen"
	"neuroselect/internal/satgraph"
	"neuroselect/internal/solver"
)

// benchScale is shared by the experiment benchmarks; small enough that a
// full regeneration fits in a benchmark iteration.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Corpus.TrainStrata = 2
	s.Corpus.PerStratum = 4
	s.Corpus.TestSize = 5
	s.Corpus.MaxConflicts = 10000
	s.Train.Epochs = 2
	s.BaselineEpochs = 1
	return s
}

// BenchmarkFigure3PropagationFrequency regenerates the Figure 3
// propagation-frequency distribution.
func BenchmarkFigure3PropagationFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		res, err := r.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if res.TopShare <= 0 {
			b.Fatal("degenerate distribution")
		}
	}
}

// BenchmarkFigure4PolicyScatter regenerates the Figure 4 default-vs-new
// policy scatter.
func BenchmarkFigure4PolicyScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		res, err := r.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure5ScorePacking measures the packed 64-bit scoring of both
// Figure 5 layouts (the per-clause cost paid at every reduction).
func BenchmarkFigure5ScorePacking(b *testing.B) {
	def, freq := deletion.DefaultPolicy{}, deletion.FrequencyPolicy{}
	ci := deletion.ClauseInfo{Glue: 5, Size: 17, Frequency: 3}
	var sink uint64
	for i := 0; i < b.N; i++ {
		ci.Glue = i & 63
		sink += def.Score(ci) ^ freq.Score(ci)
	}
	_ = sink
}

// BenchmarkTable1DatasetStats regenerates the Table 1 dataset statistics
// (corpus generation + dual-policy labeling).
func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		res, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2Classifiers regenerates the Table 2 four-way classifier
// comparison (train + evaluate all models).
func BenchmarkTable2Classifiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		res, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("missing classifier rows")
		}
	}
}

// BenchmarkFigure7Portfolio regenerates Figure 7 (portfolio scatter and
// box-plot data); Table 3 derives from the same run.
func BenchmarkFigure7Portfolio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		res, err := r.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.InferenceMS) == 0 {
			b.Fatal("no inference samples")
		}
	}
}

// BenchmarkTable3RuntimeStats regenerates the Table 3 summary via the
// shared Figure 7 pipeline and renders it.
func BenchmarkTable3RuntimeStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		res, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkRunAllQuick regenerates every artifact in one pass, as
// cmd/experiments does.
func BenchmarkRunAllQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale())
		if err := r.RunAll(io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md "design choices" section) ---

// BenchmarkAblationAttentionOn/Off measure the inference cost of the
// attention block the paper restricts to variable nodes.
func benchmarkModelForward(b *testing.B, attention bool) {
	cfg := core.Config{Hidden: 16, HGTLayers: 2, MPLayers: 2, Attention: attention, Seed: 1}
	m := core.NewModel(cfg)
	g := satgraph.BuildVCG(gen.RandomKSAT(300, 1278, 3, 9).F)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := m.PredictGraph(g); p < 0 {
			b.Fatal("bad probability")
		}
	}
}

// BenchmarkAblationAttentionOn measures inference with global attention.
func BenchmarkAblationAttentionOn(b *testing.B) { benchmarkModelForward(b, true) }

// BenchmarkAblationAttentionOff measures inference without it.
func BenchmarkAblationAttentionOff(b *testing.B) { benchmarkModelForward(b, false) }

// BenchmarkAblationAttentionComplexity verifies the linear-attention cost
// scales linearly in the variable count (§4.3 complexity analysis): ns/op
// should grow ~2× per size doubling.
func BenchmarkAblationAttentionComplexity(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		g := satgraph.BuildVCG(gen.RandomKSAT(n, int(4.26*float64(n)), 3, 5).F)
		m := core.NewModel(core.Config{Hidden: 16, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 1})
		b.Run(benchName("vars", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PredictGraph(g)
			}
		})
	}
}

// BenchmarkAblationAlphaSweep solves a fixed instance under the frequency
// policy for several α values of Eq. 2 (the paper fixes α = 4/5).
func BenchmarkAblationAlphaSweep(b *testing.B) {
	inst := gen.RandomKSAT(120, 511, 3, 7)
	for _, alpha := range []float64{0.5, 0.7, 0.8, 0.9} {
		b.Run(benchName("alpha100x", int(alpha*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := dataset.SolveOptions(deletion.FrequencyPolicy{}, 60000)
				opts.Alpha = alpha
				res, err := solver.Solve(inst.F, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Propagations), "props")
			}
		})
	}
}

// BenchmarkAblationScoreLayouts compares the scoring cost of all deletion
// policies.
func BenchmarkAblationScoreLayouts(b *testing.B) {
	policies := []deletion.Policy{
		deletion.DefaultPolicy{}, deletion.FrequencyPolicy{},
		deletion.ActivityPolicy{}, deletion.SizePolicy{},
	}
	ci := deletion.ClauseInfo{Glue: 4, Size: 11, Activity: 2.5, Frequency: 2}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= p.Score(ci)
			}
			_ = sink
		})
	}
}

// BenchmarkAblationReduceFraction sweeps the clause-database reduce
// fraction (DESIGN.md ablation 5).
func BenchmarkAblationReduceFraction(b *testing.B) {
	inst := gen.RandomKSAT(120, 511, 3, 8)
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		b.Run(benchName("frac100x", int(frac*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := dataset.SolveOptions(deletion.DefaultPolicy{}, 60000)
				opts.ReduceFraction = frac
				res, err := solver.Solve(inst.F, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Propagations), "props")
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
