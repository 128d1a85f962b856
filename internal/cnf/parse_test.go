package cnf

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// random3SAT renders a seeded random 3-SAT formula over n variables with m
// clauses as WriteDIMACS text.
func random3SAT(n, m int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	f := New(n)
	for i := 0; i < m; i++ {
		c := make(Clause, 3)
		for k := range c {
			c[k] = Lit(1 + rng.Intn(n))
			if rng.Intn(2) == 0 {
				c[k] = -c[k]
			}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return []byte(DIMACSString(f))
}

func TestParseOutOfRangeLiterals(t *testing.T) {
	for _, tc := range []struct{ in, err string }{
		{"p cnf 1 1\n4294967297 0\n", "cnf: line 2: literal 4294967297 out of range: variables are numbered 1..2147483647"},
		{"p cnf 1 1\n4294967296 0\n", "cnf: line 2: literal 4294967296 out of range: variables are numbered 1..2147483647"},
		{"1 0\n-2147483648 0\n", "cnf: line 2: literal -2147483648 out of range: variables are numbered 1..2147483647"},
		{"c x\nc y\n1 2147483648 0\n", "cnf: line 3: literal 2147483648 out of range: variables are numbered 1..2147483647"},
		{"1 -2147483649 0\n", "cnf: line 1: literal -2147483649 out of range: variables are numbered 1..2147483647"},
		{"99999999999999999999 0\n", `cnf: line 1: bad literal "99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
	} {
		if _, err := ParseDIMACSString(tc.in); err == nil || err.Error() != tc.err {
			t.Errorf("Parse(%q) error %v, want %s", tc.in, err, tc.err)
		}
	}
	f, err := ParseDIMACSString("2147483647 -2147483647 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != MaxVarIndex || !reflect.DeepEqual(f.Clauses, []Clause{{MaxVarIndex, -MaxVarIndex}}) {
		t.Fatalf("largest literals: %+v", f)
	}
}

func TestParseUnicodeWhitespace(t *testing.T) {
	f, err := ParseDIMACSString(" c comment\np\u0085cnf 4 2\n1 -2  0 3\v4\f0\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Clause{{1, -2}, {3, 4}}; f.NumVars != 4 || !reflect.DeepEqual(f.Clauses, want) {
		t.Fatalf("got %+v, want 4 vars and %v", f, want)
	}
}

// TestParseClausesDoNotAlias checks the three-index carving: every clause's
// capacity is its length, so an append reallocates instead of writing
// into the next clause's literals.
func TestParseClausesDoNotAlias(t *testing.T) {
	f, err := ParseDIMACSString("1 2 0\n0\n3 4 0\n5")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range f.Clauses {
		if cap(c) != len(c) {
			t.Errorf("clause %d: cap %d, len %d", i, cap(c), len(c))
		}
	}
	_ = append(f.Clauses[0], 9)
	_ = append(f.Clauses[2], 9)
	if want := []Clause{{1, 2}, nil, {3, 4}, {5}}; !reflect.DeepEqual(f.Clauses, want) {
		t.Fatalf("after appends: %v, want %v", f.Clauses, want)
	}
}

// TestParseAllocs holds Parse to a fixed allocation bound however many
// clauses it reads: the literal array, the clause headers and the formula.
func TestParseAllocs(t *testing.T) {
	for _, m := range []int{100, 9600} {
		body := random3SAT(m/3, m, 1)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Parse(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%d clauses: %.0f allocations per Parse, want <= 16", m, allocs)
		}
	}
}

// BenchmarkParse parses a formula of hot-cluster size: 3,200 variables,
// 9,600 clauses, about 150 KB of DIMACS.
func BenchmarkParse(b *testing.B) {
	body := random3SAT(3200, 9600, 1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if parseSink, err = Parse(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseReference is the same workload through referenceParse, the
// line-oriented reader Parse replaced.
func BenchmarkParseReference(b *testing.B) {
	body := string(random3SAT(3200, 9600, 1))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if parseSink, err = referenceParse(strings.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// parseSink keeps the benchmarked formulas live.
var parseSink *Formula

func TestValidateRejectsMinInt32(t *testing.T) {
	f := &Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {3, math.MinInt32}}}
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "clause 1 contains literal -2147483648") {
		t.Fatalf("Validate = %v, want the clause 1 literal -2147483648 error", err)
	}
	f.Clauses[1][1] = -MaxVarIndex
	f.NumVars = MaxVarIndex
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate(-MaxVarIndex) = %v", err)
	}
}
