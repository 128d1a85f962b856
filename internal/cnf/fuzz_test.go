package cnf

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzParseDIMACS checks that the parser never panics and that accepted
// inputs round-trip through WriteDIMACS.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("c comment\np cnf 1 1\n1 0")
	f.Add("1 2 0\n-1 0\n")
	f.Add("p cnf 0 0\n")
	f.Add("p cnf 5 1\n1 2 3 4 5 0\n%\n0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseDIMACSString(input)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed formula invalid: %v", err)
		}
		text := DIMACSString(g)
		h, err := ParseDIMACSString(text)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if h.NumVars != g.NumVars || len(h.Clauses) != len(g.Clauses) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				g.NumVars, len(g.Clauses), h.NumVars, len(h.Clauses))
		}
	})
}

// FuzzNormalize checks Normalize against a straightforward specification.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{1, 2, 255})
	f.Add([]byte{5, 5, 251})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var c Clause
		for _, b := range raw {
			l := Lit(int8(b))
			if l == 0 {
				continue
			}
			c = append(c, l)
		}
		if len(c) == 0 {
			return
		}
		orig := c.Clone()
		n, taut := c.Normalize()
		// Spec: tautology iff both polarities present in the original.
		set := map[Lit]bool{}
		wantTaut := false
		for _, l := range orig {
			if set[-l] {
				wantTaut = true
			}
			set[l] = true
		}
		if taut != wantTaut {
			t.Fatalf("tautology flag %v, want %v for %v", taut, wantTaut, orig)
		}
		// No duplicates, all literals from the original.
		seen := map[Lit]bool{}
		for _, l := range n {
			if seen[l] {
				t.Fatalf("duplicate %v in normalized %v", l, n)
			}
			seen[l] = true
			if !set[l] {
				t.Fatalf("literal %v invented by Normalize", l)
			}
		}
		if !strings.Contains(DIMACSString(&Formula{NumVars: n.MaxVar(), Clauses: []Clause{n}}), "0") {
			t.Fatal("unterminated clause in output")
		}
	})
}

// FuzzParseMatchesReference checks Parse against referenceParse, the
// line-oriented reader it replaced: the same accept or reject decision,
// the same error text, NumVars and clauses in order (an empty clause is nil
// in both, as is a formula's Clauses when it has none). It also checks that
// the clauses Parse carves from one literal array do not alias: appending
// to Clauses[i] leaves Clauses[i+1] unchanged.
func FuzzParseMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"p cnf 3 2\r\n1 -2 0\r\n2 3 0\r\n",
		"p cnf 3 2\n1\v-2\f0\n2\t3 0\n",
		"p cnf 3 2\n1\u00852 0 -3 0\n",
		"\u00a0c comment after a no-break space\n1\u00a0-2 0\n",
		"p\u0085cnf 2 1\n1 2 0\n",
		"+1 -0 007 0\n",
		"1234567890 -9876543210 0\n",
		"2147483647 -2147483647 0\n2147483648 0\n",
		"-2147483648 0\n",
		"99999999999999999999 0\n",
		"00000000000000000001 0\n",
		"p cnf 3 2\n1 2 0\n-3",
		"p cnf 2 1\np cnf 3 2\n1 2 0\n3 0\n",
		"1 - 2 0\n",
		"1 +x 0\n",
		"0\n0\n1 0\n",
		"%\n0\n",
		"p cnf 1 1\n\xff 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := Parse([]byte(input))
		want, werr := referenceParse(strings.NewReader(input))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Parse error %v, reference error %v", err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("Parse error %q, reference error %q", err, werr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse gave %+v, reference %+v", got, want)
		}
		for i := 0; i+1 < len(got.Clauses); i++ {
			grown := append(got.Clauses[i], 1)
			if !slices.Equal(got.Clauses[i+1], want.Clauses[i+1]) {
				t.Fatalf("appending to clause %d (now %v) changed clause %d to %v", i, grown, i+1, got.Clauses[i+1])
			}
		}
	})
}
