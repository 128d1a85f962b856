package baselines

import (
	"math"
	"testing"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/satgraph"
)

// ginBitsFormulas are fixed formulas from the generator families plus two
// corner cases of the signed variable–clause graph: a clause holding both
// polarities of one variable (two edges whose weights cancel) and a
// variable that occurs in no clause.
func ginBitsFormulas() []*cnf.Formula {
	corner := cnf.New(5)
	corner.MustAddClause(1, -1, 2)
	corner.MustAddClause(-2, 3, 3)
	corner.MustAddClause(-3, -4)
	return []*cnf.Formula{
		tinyFormula(),
		corner,
		gen.RandomKSAT(40, 170, 3, 1).F,
		gen.Pigeonhole(4).F,
		gen.ParityChain(12, 8, 3, true, 2).F,
		gen.Miter(4, 12, false, 3).F,
		gen.Tseitin(8, 3, false, 4).F,
		gen.GraphColoring(8, 18, 3, 5).F,
		gen.NQueens(5).F,
		gen.CommunityKSAT(60, 250, 3, 4, 0.85, 6).F,
		gen.SubsetSum(5, 12, true, 7).F,
	}
}

// TestGINPredictBits pins the exact output bits of a GIN, untrained and
// after two epochs of training, so a change to how the variable–clause
// graph stores its edges cannot move a single prediction.
func TestGINPredictBits(t *testing.T) {
	want := []uint64{
		0x3fe11af68b79a76c,
		0x3fe0dc3105c570e7,
		0x3fe7373bb354cdbc,
		0x3fe7273bbc3dd2e8,
		0x3fe439f6fbf2ba7d,
		0x3fe42cc710f915b5,
		0x3fe47172b7b4eaa5,
		0x3fe8ea3cb36d0b24,
		0x3fedc80270341745,
		0x3fe7b32675e8f023,
		0x3fe451f94cae4724,
	}
	fs := ginBitsFormulas()
	m := NewGIN(8, 3, 5)
	for i, f := range fs {
		if got := math.Float64bits(m.Predict(f)); got != want[i] {
			t.Errorf("formula %d: Predict bits %#016x, want %#016x", i, got, want[i])
		}
	}

	// Training reads the same operator: two epochs of Fit must land on the
	// same weights, so the same predictions.
	wantTrained := []uint64{
		0x3fdd415fa895dc7e,
		0x3fdef26ba0a5a4ab,
		0x3fdae53846a0d55e,
		0x3fdd82f0d7a2d31b,
		0x3fda05d1e7c521f8,
		0x3fdea461daa07a23,
		0x3fdae23bb9d21409,
		0x3fdf7055ede414a2,
		0x3fe1a9ab840273e7,
		0x3fdb1e498f38283e,
		0x3fde70e0257a789b,
	}
	labels := make([]int, len(fs))
	for i := range labels {
		labels[i] = i % 2
	}
	m.Fit(fs, labels, 2, 1e-2, 1)
	for i, f := range fs {
		if got := math.Float64bits(m.Predict(f)); got != wantTrained[i] {
			t.Errorf("formula %d: trained Predict bits %#016x, want %#016x", i, got, wantTrained[i])
		}
	}
}

// TestGINSignedOperator checks the sum operator GIN derives from the
// mean-normalized adjacency: the raw ±1 weight on every edge, in the
// adjacency's order.
func TestGINSignedOperator(t *testing.T) {
	g := satgraph.BuildVCG(tinyFormula())
	adj := signedAdj(g)
	// Row of x2 (node 1): neighbors c1 (+1) and c2 (−1).
	row := adj.Entries[1]
	if len(row) != 2 || row[0].Col != 3 || row[0].W != 1 || row[1].Col != 4 || row[1].W != -1 {
		t.Fatalf("x2 row = %+v", row)
	}
	for _, f := range ginBitsFormulas() {
		g := satgraph.BuildVCG(f)
		adj := signedAdj(g)
		for i, row := range g.Adj.Entries {
			if len(adj.Entries[i]) != len(row) {
				t.Fatalf("row %d: %d entries, adjacency has %d", i, len(adj.Entries[i]), len(row))
			}
			for k, e := range row {
				got := adj.Entries[i][k]
				if got.Col != e.Col || got.W*e.W <= 0 || math.Abs(got.W) != 1 {
					t.Fatalf("row %d entry %d = %+v for adjacency entry %+v", i, k, got, e)
				}
			}
		}
	}
}
