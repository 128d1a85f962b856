package dataset

import (
	"testing"

	"neuroselect/internal/gen"
	"neuroselect/internal/solver"
)

func TestLabelRule(t *testing.T) {
	// A trivially easy instance must label 0 (identical runs, no 2% gain).
	inst := gen.NQueens(5)
	lab, err := Label(inst, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !lab.SolvedBoth() {
		t.Fatal("queens-5 must solve under both policies")
	}
	if lab.PropsDefault != lab.PropsFrequency {
		t.Fatalf("no reductions should mean identical runs: %d vs %d",
			lab.PropsDefault, lab.PropsFrequency)
	}
	if lab.Label != 0 {
		t.Fatal("identical runs must label 0")
	}
	if lab.Stats.NumVars != inst.F.NumVars {
		t.Fatal("stats must describe the instance")
	}
}

func TestLabelTwoPercentBoundary(t *testing.T) {
	// Synthetic check of the §5.1 rule arithmetic via the exported fields:
	// exactly 2% reduction labels 1, less does not.
	l := Labeled{PropsDefault: 100, PropsFrequency: 98}
	if !(float64(l.PropsFrequency) <= 0.98*float64(l.PropsDefault)) {
		t.Fatal("98 of 100 is exactly the 2% boundary and must qualify")
	}
	l2 := Labeled{PropsDefault: 100, PropsFrequency: 99}
	if float64(l2.PropsFrequency) <= 0.98*float64(l2.PropsDefault) {
		t.Fatal("1% reduction must not qualify")
	}
}

// TestBudgetDefault: a zero MaxConflicts is the 20,000-conflict budget,
// for the labels and for every experiment that solves at Budget.
func TestBudgetDefault(t *testing.T) {
	if got := (Config{}).Budget(); got != 20000 {
		t.Fatalf("zero MaxConflicts budget = %d, want 20000", got)
	}
	if got := (Config{MaxConflicts: 123}).Budget(); got != 123 {
		t.Fatalf("budget = %d, want 123", got)
	}
}

func TestBuildCorpusShape(t *testing.T) {
	c, err := Build(Config{TrainStrata: 2, PerStratum: 4, TestSize: 5, Seed: 3, MaxConflicts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Train) != 2 || len(c.Test.Items) != 5 {
		t.Fatalf("corpus shape: %d strata, %d test", len(c.Train), len(c.Test.Items))
	}
	for _, st := range c.Train {
		if len(st.Items) != 4 {
			t.Fatalf("stratum %s has %d items", st.Name, len(st.Items))
		}
	}
	if len(c.All()) != 8 {
		t.Fatalf("All() = %d items", len(c.All()))
	}
	rows := c.Table1()
	if len(rows) != 3 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	if rows[2].Name != "test-2022" {
		t.Fatalf("last row must be the test stratum: %s", rows[2].Name)
	}
	for _, r := range rows {
		if r.MeanVars <= 0 || r.MeanClauses <= 0 {
			t.Fatalf("degenerate stats row: %+v", r)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	cfg := Config{TrainStrata: 1, PerStratum: 3, TestSize: 2, Seed: 9, MaxConflicts: 5000}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train[0].Items {
		x, y := a.Train[0].Items[i], b.Train[0].Items[i]
		if x.Inst.Name != y.Inst.Name || x.Label != y.Label ||
			x.PropsDefault != y.PropsDefault || x.PropsFrequency != y.PropsFrequency {
			t.Fatalf("corpus not deterministic at item %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestGenerateCoversFamilies(t *testing.T) {
	fams := map[string]bool{}
	for s := int64(0); s < 200; s++ {
		in := Generate(s, 0.3)
		fams[in.Family] = true
		if err := in.F.Validate(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
	}
	if len(fams) < 8 {
		t.Fatalf("mixture too narrow: %v", fams)
	}
}

func TestPositiveRate(t *testing.T) {
	items := []Labeled{{Label: 1}, {Label: 0}, {Label: 1}, {Label: 0}}
	if PositiveRate(items) != 0.5 {
		t.Fatalf("rate = %v", PositiveRate(items))
	}
	if PositiveRate(nil) != 0 {
		t.Fatal("empty rate")
	}
}

func TestSolveOptionsPolicyPlumbs(t *testing.T) {
	opts := SolveOptions(nil, 123)
	if opts.MaxConflicts != 123 {
		t.Fatal("budget not plumbed")
	}
	if opts.ReduceFirst != 100 || opts.ReduceInc != 50 {
		t.Fatalf("reduce schedule changed: %+v", opts)
	}
	// Options must be usable directly.
	inst := gen.RandomKSAT(20, 80, 3, 1)
	res, err := solver.Solve(inst.F, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == solver.Unknown {
		t.Fatal("tiny instance should solve")
	}
}
