// Package cnf provides conjunctive-normal-form formulas: literals, clauses,
// DIMACS parsing and writing, assignment evaluation, and formula statistics.
//
// Literals follow the DIMACS convention: a literal is a nonzero integer
// whose absolute value names a variable (1-based) and whose sign indicates
// polarity. The zero literal is reserved as a terminator in the DIMACS
// format and is never a valid literal value.
package cnf

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Lit is a DIMACS-style literal: +v for the positive literal of variable v,
// -v for its negation. Zero is invalid.
type Lit int32

// MaxVarIndex is the largest variable index a literal can name: both v and
// -v must fit in a Lit, so math.MinInt32 is not a literal.
const MaxVarIndex = math.MaxInt32

// Var returns the (1-based) variable index of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// Positive reports whether the literal is the positive polarity of its
// variable.
func (l Lit) Positive() bool { return l > 0 }

// String renders the literal in DIMACS form, e.g. "-3".
func (l Lit) String() string { return fmt.Sprintf("%d", int32(l)) }

// Clause is a disjunction of literals.
type Clause []Lit

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Normalize sorts the clause by variable (positive before negative within a
// variable) and removes duplicate literals. It reports whether the clause is
// a tautology (contains both polarities of some variable). A tautological
// clause is still returned sorted but should normally be dropped by the
// caller.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	sort.Slice(c, func(i, j int) bool {
		vi, vj := c[i].Var(), c[j].Var()
		if vi != vj {
			return vi < vj
		}
		return c[i] > c[j] // positive literal first within a variable
	})
	out := c[:0]
	taut := false
	var prev Lit
	for i, l := range c {
		if i > 0 {
			if l == prev {
				continue
			}
			if l == -prev {
				taut = true
			}
		}
		out = append(out, l)
		prev = l
	}
	return out, taut
}

// MaxVar returns the largest variable index referenced by the clause, or 0
// for an empty clause.
func (c Clause) MaxVar() int {
	m := 0
	for _, l := range c {
		if v := l.Var(); v > m {
			m = v
		}
	}
	return m
}

// Formula is a CNF formula: a conjunction of clauses over NumVars variables.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// New returns an empty formula over n variables.
func New(n int) *Formula {
	if n < 0 {
		n = 0
	}
	return &Formula{NumVars: n}
}

// ErrBadLit reports an invalid literal passed to AddClause.
var ErrBadLit = errors.New("cnf: invalid literal 0")

// AddClause appends a clause, growing NumVars if the clause references a
// larger variable. It returns an error if any literal is zero.
func (f *Formula) AddClause(lits ...Lit) error {
	c := make(Clause, len(lits))
	for i, l := range lits {
		if l == 0 {
			return ErrBadLit
		}
		c[i] = l
	}
	if mv := c.MaxVar(); mv > f.NumVars {
		f.NumVars = mv
	}
	f.Clauses = append(f.Clauses, c)
	return nil
}

// MustAddClause is AddClause that panics on invalid input; convenient for
// generators whose literals are correct by construction.
func (f *Formula) MustAddClause(lits ...Lit) {
	if err := f.AddClause(lits...); err != nil {
		panic(err)
	}
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// NumLiterals returns the total number of literal occurrences.
func (f *Formula) NumLiterals() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		g.Clauses[i] = c.Clone()
	}
	return g
}

// Validate checks structural invariants: no zero literals, no
// math.MinInt32 literal (its variable, 2147483648, exceeds MaxVarIndex),
// and no variable index above NumVars.
func (f *Formula) Validate() error {
	for i, c := range f.Clauses {
		for _, l := range c {
			if l == 0 {
				return fmt.Errorf("cnf: clause %d contains literal 0", i)
			}
			if l == math.MinInt32 {
				return fmt.Errorf("cnf: clause %d contains literal %d out of range: variables are numbered 1..%d", i, l, MaxVarIndex)
			}
			if l.Var() > f.NumVars {
				return fmt.Errorf("cnf: clause %d references variable %d > NumVars %d", i, l.Var(), f.NumVars)
			}
		}
	}
	return nil
}

// Simplify removes tautological clauses and duplicate literals in place and
// returns the number of clauses removed.
func (f *Formula) Simplify() int {
	kept := f.Clauses[:0]
	removed := 0
	for _, c := range f.Clauses {
		nc, taut := c.Normalize()
		if taut {
			removed++
			continue
		}
		kept = append(kept, nc)
	}
	f.Clauses = kept
	return removed
}

// Assignment maps variables to truth values. Index 0 is unused; index v
// holds the value of variable v.
type Assignment []bool

// NewAssignment returns an all-false assignment for n variables.
func NewAssignment(n int) Assignment { return make(Assignment, n+1) }

// Value returns the truth value of the literal under the assignment.
func (a Assignment) Value(l Lit) bool {
	v := a[l.Var()]
	if l < 0 {
		return !v
	}
	return v
}

// SatisfiesClause reports whether the assignment satisfies the clause.
func (a Assignment) SatisfiesClause(c Clause) bool {
	for _, l := range c {
		if a.Value(l) {
			return true
		}
	}
	return false
}

// Satisfies reports whether the assignment satisfies every clause of f.
func (a Assignment) Satisfies(f *Formula) bool {
	for _, c := range f.Clauses {
		if !a.SatisfiesClause(c) {
			return false
		}
	}
	return true
}
