// Package deletion implements clause-deletion policies for the CDCL solver.
//
// During a reduce step the solver ranks reducible learned clauses by a
// 64-bit packed score and deletes the lowest-scoring fraction. The paper's
// Figure 5 defines two layouts:
//
//	Default (Kissat): bits 63..32 = ~glue, bits 31..0 = ~size
//	New:              bits 63..45 = ~glue, bits 44..24 = ~size, bits 23..0 = frequency
//
// where ~x denotes elementwise negation (smaller glue/size yields a higher
// score) and frequency is the Eq. 2 propagation-frequency criterion:
//
//	c.frequency = Σ_{v∈c} [ f_v > α · f_max ]
//
// with f_v the number of times variable v triggered Boolean constraint
// propagation since the last clause deletion.
package deletion

import "fmt"

// ClauseInfo carries the per-clause features a policy may consult. The
// solver fills it at reduce time.
type ClauseInfo struct {
	Glue      int     // LBD: number of distinct decision levels at learning time
	Size      int     // number of literals
	Activity  float64 // bump-decay conflict-analysis activity
	Frequency int     // Eq. 2 count of high-propagation-frequency variables in the clause
}

// Policy ranks learned clauses; clauses with lower scores are deleted first.
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Score maps clause features to a 64-bit rank; higher means more
	// valuable (kept longer).
	Score(ci ClauseInfo) uint64
	// NeedsFrequency reports whether the solver must compute the Eq. 2
	// frequency feature before scoring (it costs a pass over the clause's
	// literals).
	NeedsFrequency() bool
}

// Field widths of the Figure 5 layouts.
const (
	defaultGlueBits = 32
	defaultSizeBits = 32

	newGlueBits = 19
	newSizeBits = 21
	newFreqBits = 24
)

// clamp limits v to the maximum representable value in bits.
func clamp(v int, bits uint) uint64 {
	if v < 0 {
		v = 0
	}
	maxVal := uint64(1)<<bits - 1
	u := uint64(v)
	if u > maxVal {
		u = maxVal
	}
	return u
}

// negate performs the "~" of Figure 5: elementwise negation within the
// field's width so that smaller inputs produce larger field values.
func negate(v int, bits uint) uint64 {
	maxVal := uint64(1)<<bits - 1
	return maxVal - clamp(v, bits)
}

// DefaultPolicy reproduces Kissat's default ranking: glue primary (lower is
// better), size secondary (lower is better).
type DefaultPolicy struct{}

// Name implements Policy.
func (DefaultPolicy) Name() string { return "default" }

// NeedsFrequency implements Policy.
func (DefaultPolicy) NeedsFrequency() bool { return false }

// Score implements Policy using the Figure 5 default layout.
func (DefaultPolicy) Score(ci ClauseInfo) uint64 {
	return negate(ci.Glue, defaultGlueBits)<<defaultSizeBits |
		negate(ci.Size, defaultSizeBits)
}

// FrequencyPolicy is the paper's new deletion policy: glue primary, size
// secondary, propagation frequency tertiary (higher frequency is better).
type FrequencyPolicy struct{}

// Name implements Policy.
func (FrequencyPolicy) Name() string { return "frequency" }

// NeedsFrequency implements Policy.
func (FrequencyPolicy) NeedsFrequency() bool { return true }

// Score implements Policy using the Figure 5 new layout.
func (FrequencyPolicy) Score(ci ClauseInfo) uint64 {
	return negate(ci.Glue, newGlueBits)<<(newSizeBits+newFreqBits) |
		negate(ci.Size, newSizeBits)<<newFreqBits |
		clamp(ci.Frequency, newFreqBits)
}

// ActivityPolicy ranks purely by conflict-analysis activity (MiniSat-style);
// included to diversify the policy pool for ablation studies.
type ActivityPolicy struct{}

// Name implements Policy.
func (ActivityPolicy) Name() string { return "activity" }

// NeedsFrequency implements Policy.
func (ActivityPolicy) NeedsFrequency() bool { return false }

// Score implements Policy. Activities are non-negative and rescaled below
// 1e100 by the solver; the monotone bit pattern of the float64 preserves
// ordering.
func (ActivityPolicy) Score(ci ClauseInfo) uint64 {
	a := ci.Activity
	if a < 0 {
		a = 0
	}
	// For non-negative IEEE-754 doubles the bit pattern is monotone in the
	// value, so it serves directly as an ordering key.
	return floatBits(a)
}

// SizePolicy ranks purely by clause size (shorter kept); another
// diversification policy.
type SizePolicy struct{}

// Name implements Policy.
func (SizePolicy) Name() string { return "size" }

// NeedsFrequency implements Policy.
func (SizePolicy) NeedsFrequency() bool { return false }

// Score implements Policy.
func (SizePolicy) Score(ci ClauseInfo) uint64 { return negate(ci.Size, 63) }

// ByName returns the policy registered under name, or an error listing the
// valid names.
func ByName(name string) (Policy, error) {
	switch name {
	case "default":
		return DefaultPolicy{}, nil
	case "frequency":
		return FrequencyPolicy{}, nil
	case "activity":
		return ActivityPolicy{}, nil
	case "size":
		return SizePolicy{}, nil
	default:
		return nil, fmt.Errorf("deletion: unknown policy %q (valid: default, frequency, activity, size)", name)
	}
}
