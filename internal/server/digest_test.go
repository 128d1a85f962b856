package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"neuroselect/internal/cnf"
)

// random3SAT renders a seeded random 3-SAT formula as DIMACS text: m
// clauses of three literals over n variables, signs and variables drawn
// independently (a clause may repeat a variable). The generator is local
// so the digests pinned below depend on nothing but math/rand's frozen
// seeded source.
func random3SAT(n, m int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	fmt.Fprintf(&sb, "p cnf %d %d\n", n, m)
	for i := 0; i < m; i++ {
		for k := 0; k < 3; k++ {
			l := 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				l = -l
			}
			fmt.Fprintf(&sb, "%d ", l)
		}
		sb.WriteString("0\n")
	}
	return sb.String()
}

// TestCanonicalHashGolden pins CanonicalHash's output bytes. Result-cache
// keys, journal Key fields and the coordinator's ring placement are all
// this digest, so a change to it silently invalidates every one of them;
// the digests were recorded from the per-clause-copy implementation the
// flat-buffer one replaced.
func TestCanonicalHashGolden(t *testing.T) {
	for _, tc := range []struct {
		name, dimacs, want string
	}{
		{"empty formula", "", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{"empty clause", "p cnf 0 1\n0\n", "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
		{"empty clause among others", "p cnf 2 3\n1 2 0\n0\n-1 0\n", "61fd671096a27194598f64120ca1bc098b100e7ff4893a9a9e2781b92c435c3d"},
		{"duplicate literals", "p cnf 3 2\n1 1 -2 0\n3 -2 3 3 0\n", "f75abef56f24eee54b942f2c9037394f6b8d7bb385b8d448a40cacdebabc5710"},
		{"unit clauses", "p cnf 3 3\n-3 0\n1 0\n2 0\n", "a54beff5e9f470baf3af3de92274b4888cfa5bb25e2a9ab30c17498e5baecbbd"},
		{"unused declared variables", "p cnf 40 2\n1 -2 0\n2 3 0\n", "b944a3c3a45a5dbdf7624632f3232b0ac810a96c7b3fc358db31d5e4cebfc0f0"},
		{"shared prefixes", "p cnf 4 5\n1 2 3 0\n1 2 0\n1 2 -4 0\n1 0\n-1 2 4 0\n", "b88634027c853ad61b4786a7ac51f3d3379e3be88678c3d7ff8efc4b968a4fd3"},
		{"literal magnitude 2147483647", "p cnf 2147483647 2\n2147483647 -1 0\n-2147483647 0\n", "d6d9ae1535b95da032df67ab4e6dcaa6a24514f715b8f825df2e8ae9aa6d19ad"},
		{"random 3-SAT, 3200 variables", random3SAT(3200, 9600, 17), "60d639fbfaf2ea878188cf7d4f1becef7afa62af70b321e0c3a77ec4fbe60b9b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := CanonicalHash(parse(t, tc.dimacs)); got != tc.want {
				t.Errorf("CanonicalHash = %s, want %s", got, tc.want)
			}
		})
	}
}

// FuzzCanonicalHashMatchesReference checks CanonicalHash against
// referenceCanonicalHash, the per-clause-copy digest it replaced, on two
// formulas per input: the input parsed as DIMACS (when it parses), and the
// input read as little-endian int32 literals with 0 closing a clause. The
// second reaches literals no parse yields, math.MinInt32 among them, whose
// prefix key ties with a missing literal.
func FuzzCanonicalHashMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"p cnf 4 5\n1 2 3 0\n1 2 0\n1 2 -4 0\n1 0\n-1 2 4 0\n",
		"p cnf 3 4\n0\n1 1 0\n1 0\n-3 2 1 0 2 -3 1 0\n",
		"\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x80\x01\x00\x00\x00",
		"\xff\xff\xff\xff\x00\x00\x00\x00\xff\xff\xff\x7f",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		check := func(form *cnf.Formula) {
			if got, want := CanonicalHash(form), referenceCanonicalHash(form); got != want {
				t.Fatalf("CanonicalHash %s, reference %s for %v", got, want, form.Clauses)
			}
		}
		if form, err := cnf.ParseDIMACSString(input); err == nil {
			check(form)
		}
		form := &cnf.Formula{NumVars: len(input)}
		var cur cnf.Clause
		for b := []byte(input); len(b) >= 4; b = b[4:] {
			if l := cnf.Lit(binary.LittleEndian.Uint32(b)); l != 0 {
				cur = append(cur, l)
				continue
			}
			form.Clauses = append(form.Clauses, cur)
			cur = nil
		}
		check(form)
	})
}

// TestCanonicalHashAllocs holds CanonicalHash to a fixed allocation bound
// however many clauses it digests: the flat literal copy, the span array,
// the chunk buffer, the SHA-256 state and the hex key.
func TestCanonicalHashAllocs(t *testing.T) {
	for _, m := range []int{100, 9600} {
		f := parse(t, random3SAT(m/3, m, 1))
		if allocs := testing.AllocsPerRun(10, func() { CanonicalHash(f) }); allocs > 16 {
			t.Errorf("%d clauses: %.0f allocations per CanonicalHash, want <= 16", m, allocs)
		}
	}
}

// BenchmarkCanonicalHash digests a formula of hot-cluster size: 3,200
// variables, 9,600 clauses.
func BenchmarkCanonicalHash(b *testing.B) {
	f, err := cnf.ParseDIMACSString(random3SAT(3200, 9600, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = CanonicalHash(f)
	}
}

// BenchmarkCanonicalHashReference is the same workload through
// referenceCanonicalHash, the digest CanonicalHash replaced.
func BenchmarkCanonicalHashReference(b *testing.B) {
	f, err := cnf.ParseDIMACSString(random3SAT(3200, 9600, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = referenceCanonicalHash(f)
	}
}

// hashSink keeps the benchmarked digests live.
var hashSink string
