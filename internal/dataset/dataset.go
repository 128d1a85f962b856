// Package dataset builds the labeled corpora used to train and evaluate the
// NeuroSelect classifier. Following §5.1 of the paper, every instance is
// solved twice — once under the default clause-deletion policy and once
// under the propagation-frequency–guided policy — and labeled 1 when the
// new policy reduces the (deterministic) propagation count by at least 2%.
//
// The paper draws training strata from SAT Competition years 2016–2021 and
// tests on 2022; this reproduction substitutes seven seeded generator
// strata with matching roles (six train, one test).
package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
	"neuroselect/internal/solver"
	"neuroselect/internal/sweep"
)

// Labeled is one dataset entry: an instance, the measurements of its two
// labeling solves, and the resulting policy label. Figure 4's scatter and
// the ext-policies pool read these measurements instead of solving the
// pair again.
type Labeled struct {
	Inst gen.Instance
	// PropsDefault and PropsFrequency are the propagation counts needed to
	// solve under each policy.
	PropsDefault   int64
	PropsFrequency int64
	// SolvedDefault and SolvedFrequency report that each run finished
	// within budget; labels of unsolved instances compare equal-budget
	// progress instead.
	SolvedDefault, SolvedFrequency bool
	// WallDefault and WallFrequency are the runs' wall-clock durations.
	WallDefault, WallFrequency time.Duration
	// Label is 1 when the frequency policy reduced propagations by ≥2%.
	Label int
	Stats cnf.Stats
}

// SolvedBoth reports that both runs finished within budget.
func (l Labeled) SolvedBoth() bool { return l.SolvedDefault && l.SolvedFrequency }

// Stratum is a named group of labeled instances (the analogue of one
// competition year).
type Stratum struct {
	Name  string
	Items []Labeled
}

// Corpus is the full dataset: several training strata plus one test
// stratum.
type Corpus struct {
	Train []Stratum
	Test  Stratum
}

// Config sizes the corpus. The zero value is filled with defaults that
// label in seconds on a laptop.
type Config struct {
	// TrainStrata is the number of training strata (paper: 6 years).
	TrainStrata int
	// PerStratum is the number of instances per training stratum.
	PerStratum int
	// TestSize is the number of test instances.
	TestSize int
	// Scale multiplies instance sizes (1.0 = laptop defaults).
	Scale float64
	// MaxConflicts bounds each labeling solve (see Budget).
	MaxConflicts int64
	// Seed drives all generation.
	Seed int64
	// Workers bounds the parallel labeling pool (0 → runtime.NumCPU()).
	// Generation and labeling are pure functions of the per-instance seed
	// and results are collected in index order, so the corpus is identical
	// for every worker count.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.TrainStrata == 0 {
		c.TrainStrata = 6
	}
	if c.PerStratum == 0 {
		c.PerStratum = 12
	}
	if c.TestSize == 0 {
		c.TestSize = 18
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	c.MaxConflicts = c.Budget()
}

// Budget is the conflict budget of each labeling solve: MaxConflicts, or
// 20,000 when it is zero.
func (c Config) Budget() int64 {
	if c.MaxConflicts == 0 {
		return 20000
	}
	return c.MaxConflicts
}

// SolveOptions returns the solver configuration used throughout the
// experiments: an aggressive reduce schedule so clause deletion is
// exercised even on laptop-scale instances, and the requested policy.
func SolveOptions(p deletion.Policy, maxConflicts int64) solver.Options {
	return solver.Options{
		Policy:       p,
		MaxConflicts: maxConflicts,
		ReduceFirst:  100,
		ReduceInc:    50,
	}
}

// Label measures the formula under both deletion policies and applies the
// §5.1 2%-reduction rule.
func Label(inst gen.Instance, maxConflicts int64) (Labeled, error) {
	return LabelContext(context.Background(), inst, maxConflicts)
}

// LabelContext is Label under a context: cancellation aborts the underlying
// solves (see solver.SolveContext).
func LabelContext(ctx context.Context, inst gen.Instance, maxConflicts int64) (Labeled, error) {
	start := time.Now()
	resDefault, err := solver.SolveContext(ctx, inst.F, SolveOptions(deletion.DefaultPolicy{}, maxConflicts))
	if err != nil {
		return Labeled{}, fmt.Errorf("dataset: labeling %s (default): %w", inst.Name, err)
	}
	wallDefault := time.Since(start)
	start = time.Now()
	resFreq, err := solver.SolveContext(ctx, inst.F, SolveOptions(deletion.FrequencyPolicy{}, maxConflicts))
	if err != nil {
		return Labeled{}, fmt.Errorf("dataset: labeling %s (frequency): %w", inst.Name, err)
	}
	l := Labeled{
		Inst:            inst,
		PropsDefault:    resDefault.Stats.Propagations,
		PropsFrequency:  resFreq.Stats.Propagations,
		SolvedDefault:   resDefault.Status != solver.Unknown,
		SolvedFrequency: resFreq.Status != solver.Unknown,
		WallDefault:     wallDefault,
		WallFrequency:   time.Since(start),
		Stats:           cnf.ComputeStats(inst.F),
	}
	if float64(l.PropsFrequency) <= 0.98*float64(l.PropsDefault) {
		l.Label = 1
	}
	return l, nil
}

// Build generates and labels a full corpus.
func Build(cfg Config) (*Corpus, error) {
	return BuildContext(context.Background(), cfg)
}

// BuildContext is Build under a context. Labeling — two solves per instance,
// the dominant cost — is sharded across a bounded worker pool
// (cfg.Workers); per-instance seeding and index-ordered collection keep the
// corpus byte-identical for every worker count. Cancellation drains the
// pool and returns the context error.
func BuildContext(ctx context.Context, cfg Config) (*Corpus, error) {
	cfg.fillDefaults()
	corpus := &Corpus{}
	for s := 0; s < cfg.TrainStrata; s++ {
		name := fmt.Sprintf("train-%d", 2016+s)
		st, err := buildStratum(ctx, cfg, name, cfg.PerStratum, cfg.Seed+int64(s)*1000)
		if err != nil {
			return nil, err
		}
		corpus.Train = append(corpus.Train, st)
	}
	test, err := buildStratum(ctx, cfg, "test-2022", cfg.TestSize, cfg.Seed+7777)
	if err != nil {
		return nil, err
	}
	corpus.Test = test
	return corpus, nil
}

// buildStratum generates count instances across the generator families and
// labels each cell of the stratum in parallel.
func buildStratum(ctx context.Context, cfg Config, name string, count int, seed int64) (Stratum, error) {
	items, errs := sweep.Map(ctx, sweep.Options{Workers: cfg.Workers}, count,
		func(ctx context.Context, i int) (Labeled, error) {
			inst := Generate(seed+int64(i)*13, cfg.Scale)
			return LabelContext(ctx, inst, cfg.MaxConflicts)
		})
	if err := sweep.FirstError(errs); err != nil {
		return Stratum{}, err
	}
	if err := ctx.Err(); err != nil {
		return Stratum{}, err
	}
	return Stratum{Name: name, Items: items}, nil
}

// Generate draws one instance from the family mixture, deterministically in
// the seed. Scale stretches the size parameters.
func Generate(seed int64, scale float64) gen.Instance {
	rng := rand.New(rand.NewSource(seed))
	sc := func(base int) int {
		v := int(float64(base) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	// The mixture is biased toward families where the two deletion policies
	// measurably diverge (random/community k-SAT at the phase transition,
	// pigeonhole, Tseitin, subset-sum, long BMC), with a minority of easier
	// structured instances on which clause deletion is irrelevant — as in
	// real competition pools.
	switch rng.Intn(12) {
	case 0, 1, 2:
		n := sc(100 + rng.Intn(100))
		m := int(4.26 * float64(n))
		return gen.RandomKSAT(n, m, 3, seed)
	case 3:
		n := sc(180 + rng.Intn(80))
		m := int(4.2 * float64(n))
		return gen.CommunityKSAT(n, m, 3, 4+rng.Intn(4), 0.85, seed)
	case 4:
		return gen.Tseitin(sc(32+rng.Intn(12)), 3, false, seed)
	case 5:
		return gen.Pigeonhole(6 + rng.Intn(2))
	case 6:
		return gen.SubsetSum(sc(20+rng.Intn(10)), 50, rng.Intn(2) == 0, seed)
	case 7:
		steps := sc(30 + rng.Intn(30))
		var target uint64
		if rng.Intn(2) == 0 {
			target = uint64(steps + rng.Intn(steps+1)) // SAT
		} else {
			target = uint64(2*steps + 1 + rng.Intn(16)) // UNSAT
		}
		return gen.BMCCounter(6, steps, target)
	case 8:
		return gen.Miter(12+rng.Intn(5), sc(200+rng.Intn(200)), rng.Intn(2) == 0, seed)
	case 9:
		v := sc(25 + rng.Intn(10))
		return gen.GraphColoring(v, int(4.6*float64(v)), 4, seed)
	case 10:
		return gen.ParityChain(sc(36+rng.Intn(10)), sc(28+rng.Intn(8)), 5, true, seed)
	default:
		if rng.Intn(2) == 0 {
			return gen.NQueens(7 + rng.Intn(3))
		}
		n := sc(120 + rng.Intn(80))
		return gen.PowerLawKSAT(n, int(4.4*float64(n)), 3, 0.9, seed)
	}
}

// All returns every labeled item of the training strata.
func (c *Corpus) All() []Labeled {
	var out []Labeled
	for _, st := range c.Train {
		out = append(out, st.Items...)
	}
	return out
}

// PositiveRate returns the fraction of label-1 items in the slice.
func PositiveRate(items []Labeled) float64 {
	if len(items) == 0 {
		return 0
	}
	n := 0
	for _, it := range items {
		n += it.Label
	}
	return float64(n) / float64(len(items))
}

// StratumStats is one row of the Table 1 dataset-statistics report.
type StratumStats struct {
	Name        string
	NumCNFs     int
	MeanVars    float64
	MeanClauses float64
	PosRate     float64
}

// Table1 computes the dataset-statistics rows for all strata (train rows
// followed by the test row), mirroring the layout of the paper's Table 1.
func (c *Corpus) Table1() []StratumStats {
	rows := make([]StratumStats, 0, len(c.Train)+1)
	for _, st := range c.Train {
		rows = append(rows, stratumStats(st))
	}
	rows = append(rows, stratumStats(c.Test))
	return rows
}

func stratumStats(st Stratum) StratumStats {
	s := StratumStats{Name: st.Name, NumCNFs: len(st.Items), PosRate: PositiveRate(st.Items)}
	for _, it := range st.Items {
		s.MeanVars += float64(it.Stats.NumVars)
		s.MeanClauses += float64(it.Stats.NumClauses)
	}
	if len(st.Items) > 0 {
		s.MeanVars /= float64(len(st.Items))
		s.MeanClauses /= float64(len(st.Items))
	}
	return s
}
