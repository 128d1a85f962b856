package deletion

import (
	"math"
	"testing"
	"testing/quick"
)

// orderDefault is the reference comparison the Figure 5 default layout must
// realize: lower glue wins, then lower size.
func orderDefault(a, b ClauseInfo) int {
	switch {
	case a.Glue != b.Glue:
		if a.Glue < b.Glue {
			return 1
		}
		return -1
	case a.Size != b.Size:
		if a.Size < b.Size {
			return 1
		}
		return -1
	}
	return 0
}

// orderFrequency adds the frequency tie-break: higher frequency wins.
func orderFrequency(a, b ClauseInfo) int {
	if c := orderDefault(a, b); c != 0 {
		return c
	}
	switch {
	case a.Frequency > b.Frequency:
		return 1
	case a.Frequency < b.Frequency:
		return -1
	}
	return 0
}

func clampInfo(ci ClauseInfo, glueMax, sizeMax, freqMax int) ClauseInfo {
	c := func(v, m int) int {
		if v < 0 {
			v = -v
		}
		return v % m
	}
	return ClauseInfo{
		Glue:      c(ci.Glue, glueMax),
		Size:      c(ci.Size, sizeMax),
		Frequency: c(ci.Frequency, freqMax),
	}
}

func TestDefaultPolicyOrderProperty(t *testing.T) {
	p := DefaultPolicy{}
	f := func(a, b ClauseInfo) bool {
		a = clampInfo(a, 1000, 100000, 1)
		b = clampInfo(b, 1000, 100000, 1)
		sa, sb := p.Score(a), p.Score(b)
		switch orderDefault(a, b) {
		case 1:
			return sa > sb
		case -1:
			return sa < sb
		default:
			return sa == sb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyPolicyOrderProperty(t *testing.T) {
	p := FrequencyPolicy{}
	f := func(a, b ClauseInfo) bool {
		// Stay within the Figure 5 field widths so the reference order is
		// exactly realizable.
		a = clampInfo(a, 1<<19, 1<<21, 1<<24)
		b = clampInfo(b, 1<<19, 1<<21, 1<<24)
		sa, sb := p.Score(a), p.Score(b)
		switch orderFrequency(a, b) {
		case 1:
			return sa > sb
		case -1:
			return sa < sb
		default:
			return sa == sb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyIsTieBreakOnly(t *testing.T) {
	// Per Figure 5, frequency must never override glue or size.
	p := FrequencyPolicy{}
	lowGlue := ClauseInfo{Glue: 3, Size: 10, Frequency: 0}
	highGlue := ClauseInfo{Glue: 4, Size: 3, Frequency: 1 << 23}
	if p.Score(lowGlue) <= p.Score(highGlue) {
		t.Fatal("frequency overrode glue ordering")
	}
	smaller := ClauseInfo{Glue: 3, Size: 5, Frequency: 0}
	larger := ClauseInfo{Glue: 3, Size: 6, Frequency: 1 << 23}
	if p.Score(smaller) <= p.Score(larger) {
		t.Fatal("frequency overrode size ordering")
	}
}

func TestScoreClamping(t *testing.T) {
	// Out-of-range features must clamp, not wrap.
	d := DefaultPolicy{}
	if d.Score(ClauseInfo{Glue: -5, Size: 1}) != d.Score(ClauseInfo{Glue: 0, Size: 1}) {
		t.Fatal("negative glue should clamp to 0")
	}
	huge := ClauseInfo{Glue: math.MaxInt64 / 2, Size: 3}
	big := ClauseInfo{Glue: int(^uint32(0)), Size: 3}
	if d.Score(huge) != d.Score(big) {
		t.Fatal("oversized glue should clamp to field max")
	}
	f := FrequencyPolicy{}
	if f.Score(ClauseInfo{Glue: 1, Size: 1, Frequency: 1 << 30}) !=
		f.Score(ClauseInfo{Glue: 1, Size: 1, Frequency: (1 << 24) - 1}) {
		t.Fatal("oversized frequency should clamp to field max")
	}
}

func TestActivityPolicyOrdering(t *testing.T) {
	p := ActivityPolicy{}
	if p.Score(ClauseInfo{Activity: 2}) <= p.Score(ClauseInfo{Activity: 1}) {
		t.Fatal("higher activity must score higher")
	}
	if p.Score(ClauseInfo{Activity: -1}) != p.Score(ClauseInfo{Activity: 0}) {
		t.Fatal("negative activity should clamp to 0")
	}
	if p.Score(ClauseInfo{Activity: math.NaN()}) != 0 {
		t.Fatal("NaN activity should rank lowest")
	}
}

func TestSizePolicyOrdering(t *testing.T) {
	p := SizePolicy{}
	if p.Score(ClauseInfo{Size: 2}) <= p.Score(ClauseInfo{Size: 10}) {
		t.Fatal("shorter clause must score higher")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"default", "frequency", "activity", "size"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestFrequencyEq2(t *testing.T) {
	freq := []uint64{0, 10, 8, 3, 0, 10} // vars 1..5
	fmax := uint64(10)
	// α = 4/5 → threshold 8; strictly greater counts.
	got := Frequency([]int{1, 2, 3, 5}, freq, fmax, DefaultAlpha)
	if got != 2 { // vars 1 and 5 have f=10 > 8; var 2 has f=8 which is not > 8
		t.Fatalf("frequency = %d, want 2", got)
	}
	if Frequency([]int{1, 2}, freq, 0, DefaultAlpha) != 0 {
		t.Fatal("fmax=0 must yield 0")
	}
	// Out-of-range variables are ignored, not a panic.
	if Frequency([]int{0, 99}, freq, fmax, DefaultAlpha) != 0 {
		t.Fatal("out-of-range vars should contribute 0")
	}
}

func TestNeedsFrequencyFlags(t *testing.T) {
	if (DefaultPolicy{}).NeedsFrequency() || (ActivityPolicy{}).NeedsFrequency() || (SizePolicy{}).NeedsFrequency() {
		t.Fatal("only FrequencyPolicy needs frequency")
	}
	if !(FrequencyPolicy{}).NeedsFrequency() {
		t.Fatal("FrequencyPolicy must request frequency computation")
	}
}
