package satgraph

import (
	"math"
	"testing"
	"testing/quick"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/tensor"
)

func smallFormula() *cnf.Formula {
	// c1 = ¬x1 ∨ x2, c2 = ¬x2 ∨ x3 (the Figure 6 example).
	f := cnf.New(3)
	f.MustAddClause(-1, 2)
	f.MustAddClause(-2, 3)
	return f
}

func TestBuildVCGStructure(t *testing.T) {
	g := BuildVCG(smallFormula())
	if g.NumVars != 3 || g.NumClauses != 2 || g.NumNodes() != 5 {
		t.Fatalf("shape: %+v", g)
	}
	// Degrees: x1:1, x2:2, x3:1, c1:2, c2:2.
	want := []int{1, 2, 1, 2, 2}
	for i, w := range want {
		if g.Degree[i] != w {
			t.Fatalf("degree[%d] = %d, want %d", i, g.Degree[i], w)
		}
	}
	if g.Adj.NNZ() != 8 { // 4 edges × 2 directions
		t.Fatalf("adj nnz = %d", g.Adj.NNZ())
	}
}

func TestVCGEdgeWeightsAndNormalization(t *testing.T) {
	g := BuildVCG(smallFormula())
	// Row of x2 (node 1): neighbors c1 (+1) and c2 (−1), each /2.
	row := g.Adj.Entries[1]
	if len(row) != 2 {
		t.Fatalf("x2 row has %d entries", len(row))
	}
	weights := map[int]float64{}
	for _, e := range row {
		weights[e.Col] = e.W
	}
	if weights[3] != 0.5 || weights[4] != -0.5 {
		t.Fatalf("x2 weights = %v", weights)
	}
}

// TestVCGRowsInFormulaOrder checks the two-pass build: every row lists its
// edges clause by clause, literal by literal, and ends exactly where its
// degree says, so rows carved from the shared backing array never overlap.
func TestVCGRowsInFormulaOrder(t *testing.T) {
	f := cnf.New(3)
	f.MustAddClause(2, -1)
	f.MustAddClause(1, -1, 3)
	f.MustAddClause(-2)
	g := BuildVCG(f)
	want := [][]tensor.SparseEntry{
		{{Col: 3, W: -1.0 / 3}, {Col: 4, W: 1.0 / 3}, {Col: 4, W: -1.0 / 3}},
		{{Col: 3, W: 0.5}, {Col: 5, W: -0.5}},
		{{Col: 4, W: 1}},
		{{Col: 1, W: 0.5}, {Col: 0, W: -0.5}},
		{{Col: 0, W: 1.0 / 3}, {Col: 0, W: -1.0 / 3}, {Col: 2, W: 1.0 / 3}},
		{{Col: 1, W: -1}},
	}
	for i, w := range want {
		row := g.Adj.Entries[i]
		if len(row) != len(w) || cap(row) != g.Degree[i] {
			t.Fatalf("row %d: len %d cap %d, want len %d cap %d", i, len(row), cap(row), len(w), g.Degree[i])
		}
		for k := range w {
			if row[k] != w[k] {
				t.Fatalf("row %d entry %d = %+v, want %+v", i, k, row[k], w[k])
			}
		}
	}
}

func TestVCGMeanAggregation(t *testing.T) {
	// Multiplying the normalized adjacency by all-ones variable features
	// must give each clause its mean edge weight.
	g := BuildVCG(smallFormula())
	x := g.InitialFeatures(1)
	out := tensor.SpMM(g.Adj, x)
	// c1 mean = (−1·1 + 1·1)/2 = 0 using variable features 1 (x-part only;
	// clause features are 0 and do not contribute to clause rows).
	if math.Abs(out.At(3, 0)-0) > 1e-12 {
		t.Fatalf("c1 aggregate = %v", out.At(3, 0))
	}
	// x1's only neighbor is c1 whose feature is 0 → 0.
	if out.At(0, 0) != 0 {
		t.Fatalf("x1 aggregate = %v", out.At(0, 0))
	}
}

func TestInitialFeatures(t *testing.T) {
	g := BuildVCG(smallFormula())
	x := g.InitialFeatures(4)
	if x.Rows != 5 || x.Cols != 4 {
		t.Fatalf("features %dx%d", x.Rows, x.Cols)
	}
	for v := 0; v < 3; v++ {
		for j := 0; j < 4; j++ {
			if x.At(v, j) != 1 {
				t.Fatal("§4.2: variable features must initialize to 1")
			}
		}
	}
	for c := 3; c < 5; c++ {
		for j := 0; j < 4; j++ {
			if x.At(c, j) != 0 {
				t.Fatal("§4.2: clause features must initialize to 0")
			}
		}
	}
}

func TestLitIndexAndFlip(t *testing.T) {
	if LitIndex(cnf.Lit(1)) != 0 || LitIndex(cnf.Lit(-1)) != 1 {
		t.Fatal("LitIndex variable 1")
	}
	if LitIndex(cnf.Lit(3)) != 4 || LitIndex(cnf.Lit(-3)) != 5 {
		t.Fatal("LitIndex variable 3")
	}
	f := func(i uint16) bool {
		n := int(i)
		return FlipIndex(FlipIndex(n)) == n && FlipIndex(n) != n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLCGStructure(t *testing.T) {
	g := BuildLCG(smallFormula())
	if g.NumVars != 3 || g.NumClauses != 2 {
		t.Fatalf("shape %+v", g)
	}
	// LitToClause row 0 (= c1) has sum-aggregation entries for ¬x1 (idx 1)
	// and x2 (idx 2).
	row := g.LitToClause.Entries[0]
	if len(row) != 2 {
		t.Fatalf("c1 row: %v", row)
	}
	for _, e := range row {
		if e.W != 1 {
			t.Fatalf("c1 weight: %v (NeuroSAT uses sum aggregation)", e.W)
		}
		if e.Col != 1 && e.Col != 2 {
			t.Fatalf("c1 neighbor: %d", e.Col)
		}
	}
	// ClauseToLit row of x2 (idx 2): only c1, weight 1.
	row2 := g.ClauseToLit.Entries[2]
	if len(row2) != 1 || row2[0].Col != 0 || row2[0].W != 1 {
		t.Fatalf("x2 row: %v", row2)
	}
}

func TestGraphsOnGeneratedInstances(t *testing.T) {
	insts := []gen.Instance{
		gen.RandomKSAT(30, 120, 3, 1),
		gen.Pigeonhole(4),
		gen.Miter(4, 12, false, 1),
	}
	for _, in := range insts {
		v := BuildVCG(in.F)
		if v.NumNodes() != in.F.NumVars+len(in.F.Clauses) {
			t.Errorf("%s: node count", in.Name)
		}
		if v.Adj.NNZ() != 2*in.F.NumLiterals() {
			t.Errorf("%s: VCG nnz %d != 2×%d", in.Name, v.Adj.NNZ(), in.F.NumLiterals())
		}
		l := BuildLCG(in.F)
		if l.LitToClause.NNZ() != in.F.NumLiterals() {
			t.Errorf("%s: LCG nnz", in.Name)
		}
	}
}

func TestEmptyFormulaGraphs(t *testing.T) {
	f := cnf.New(0)
	v := BuildVCG(f)
	if v.NumNodes() != 0 {
		t.Fatal("empty VCG")
	}
	l := BuildLCG(f)
	if l.NumVars != 0 || l.NumClauses != 0 {
		t.Fatal("empty LCG")
	}
}
