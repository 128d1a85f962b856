package portfolio

import (
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/gen"
	"neuroselect/internal/solver"
)

// The BenchmarkPortfolio family measures whole portfolio solves on a
// fixed UNSAT instance (php-7): free-running throughput, lockstep
// deterministic rounds, and the free-running mode with exchange disabled
// (isolating what clause sharing costs and buys). bench.sh emits these
// into BENCH_solver.json under the "portfolio" family.

func benchPortfolio(b *testing.B, cfg Config) {
	b.Helper()
	f := gen.Pigeonhole(7).F
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := SolveParallel(f, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Result.Status != solver.Unsat {
			b.Fatalf("got %v, want UNSAT", rep.Result.Status)
		}
	}
}

func BenchmarkPortfolioFree4(b *testing.B) {
	benchPortfolio(b, Config{Workers: 4})
}

func BenchmarkPortfolioFree4NoExchange(b *testing.B) {
	benchPortfolio(b, Config{Workers: 4, NoExchange: true})
}

func BenchmarkPortfolioLockstep4(b *testing.B) {
	benchPortfolio(b, Config{Deterministic: true, Workers: 4})
}

// quickScaleConfig is experiments.QuickScale().Model, the selector the
// service benchmark trains and serves (portfolio cannot import
// experiments).
var quickScaleConfig = core.Config{Hidden: 8, HGTLayers: 1, MPLayers: 2, Attention: true, Seed: 3}

// BenchmarkChoose measures one policy selection as a served ?policy=auto
// solve pays it on a cache miss: the variable–clause graph build plus the
// model call, at the served configuration, for a formula the selector has
// not chosen for before. The formulas are draws of the training mixture
// at the service benchmark's size, cycled in order.
func BenchmarkChoose(b *testing.B) {
	var fs []*cnf.Formula
	for seed := int64(1); seed <= 64; seed++ {
		fs = append(fs, dataset.Generate(seed, 0.75).F)
	}
	sel := NewSelector(core.NewModel(quickScaleConfig))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Choose(fs[i%len(fs)])
	}
}
