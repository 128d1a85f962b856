package experiments

import (
	"fmt"
	"sort"
	"strings"

	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
	"neuroselect/internal/solver"
)

// Fig3Result reproduces Figure 3: the distribution of per-variable
// propagation frequencies while solving one instance. The paper plots one
// SAT Competition 2022 instance; we use a structured instance from the
// generator pool.
type Fig3Result struct {
	Instance string
	// Freqs[v] is the cumulative number of BCP assignments of variable v
	// (index 0 unused).
	Freqs []uint64
	// Deciles are the 0%,10%,…,100% quantiles of the distribution.
	Deciles []uint64
	// TopShare is the fraction of all propagations carried by the top 10%
	// most-propagated variables — the skew the paper's Figure 3
	// illustrates.
	TopShare float64
	// AboveAlphaFrac is the fraction of variables whose frequency exceeds
	// α·f_max with the paper's α = 4/5 (the Eq. 2 criterion support).
	AboveAlphaFrac float64
}

// Fig3 solves one representative instance with frequency tracking enabled
// and summarizes the distribution. A Tseitin instance is used because its
// propagation profile shows the pronounced skew the paper's Figure 3
// illustrates (a small fraction of variables carries a large share of all
// BCP assignments).
func (r *Runner) Fig3() (Fig3Result, error) {
	inst := gen.Tseitin(34, 3, false, 2022)
	s, err := solver.New(inst.F, dataset.SolveOptions(deletion.DefaultPolicy{}, r.Scale.Corpus.Budget()))
	if err != nil {
		return Fig3Result{}, err
	}
	s.Solve()
	freqs := s.PropagationFrequencies()
	return summarizeFreqs(inst.Name, freqs), nil
}

func summarizeFreqs(name string, freqs []uint64) Fig3Result {
	res := Fig3Result{Instance: name, Freqs: freqs}
	vals := append([]uint64(nil), freqs[1:]...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	n := len(vals)
	if n == 0 {
		return res
	}
	for d := 0; d <= 10; d++ {
		idx := d * (n - 1) / 10
		res.Deciles = append(res.Deciles, vals[idx])
	}
	var total, top uint64
	for _, v := range vals {
		total += v
	}
	topCount := (n + 9) / 10
	for _, v := range vals[n-topCount:] {
		top += v
	}
	if total > 0 {
		res.TopShare = float64(top) / float64(total)
	}
	fmax := vals[n-1]
	if fmax > 0 {
		above := 0
		for _, v := range vals {
			if float64(v) > deletion.DefaultAlpha*float64(fmax) {
				above++
			}
		}
		res.AboveAlphaFrac = float64(above) / float64(n)
	}
	return res
}

// Render prints the decile table and an ASCII histogram of the
// distribution.
func (f Fig3Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3 — propagation-frequency distribution on %s\n", f.Instance)
	fmt.Fprintf(&sb, "  variables: %d, top-10%% variables carry %.1f%% of propagations\n",
		len(f.Freqs)-1, 100*f.TopShare)
	fmt.Fprintf(&sb, "  fraction of variables above α·f_max (α=4/5): %.2f%%\n", 100*f.AboveAlphaFrac)
	fmt.Fprintf(&sb, "  decile  frequency\n")
	for d, v := range f.Deciles {
		bar := strings.Repeat("#", scaleBar(v, f.Deciles[len(f.Deciles)-1], 50))
		fmt.Fprintf(&sb, "  %4d%%  %8d %s\n", d*10, v, bar)
	}
	return sb.String()
}

func scaleBar(v, max uint64, width int) int {
	if max == 0 {
		return 0
	}
	return int(uint64(width) * v / max)
}
