package solver

import (
	"sort"

	"neuroselect/internal/cnf"
)

// lit is the solver-internal literal encoding: variable v (0-based) with
// polarity bit in the LSB. Positive literal of v is v<<1, negative v<<1|1.
type lit uint32

const litUndef lit = ^lit(0)

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// v returns the 0-based variable of the literal.
func (l lit) v() int { return int(l >> 1) }

// neg reports whether the literal is negated.
func (l lit) neg() bool { return l&1 == 1 }

// not returns the complementary literal.
func (l lit) not() lit { return l ^ 1 }

// fromCNF converts a DIMACS-style literal (1-based, signed) to internal form.
func fromCNF(l cnf.Lit) lit { return mkLit(l.Var()-1, l < 0) }

// toCNF converts an internal literal back to DIMACS form.
func toCNF(l lit) cnf.Lit {
	c := cnf.Lit(l.v() + 1)
	if l.neg() {
		c = -c
	}
	return c
}

// toCNFSlice converts a slice of internal literals to DIMACS form.
func toCNFSlice(lits []lit) []cnf.Lit {
	out := make([]cnf.Lit, len(lits))
	for i, l := range lits {
		out[i] = toCNF(l)
	}
	return out
}

// sortLits sorts internal literals ascending — (variable, positive-first)
// order, matching cnf.Clause.Normalize. Small clauses (the vast majority)
// use an allocation-free insertion sort; long ones fall back to the
// library sort.
func sortLits(ls []lit) {
	if len(ls) <= 64 {
		for i := 1; i < len(ls); i++ {
			x := ls[i]
			j := i - 1
			for j >= 0 && ls[j] > x {
				ls[j+1] = ls[j]
				j--
			}
			ls[j+1] = x
		}
		return
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
}

// lbool is a three-valued truth value.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)
