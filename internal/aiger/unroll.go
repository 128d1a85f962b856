package aiger

import (
	"fmt"

	"neuroselect/internal/circuit"
	"neuroselect/internal/cnf"
)

// Unroller stamps time-frame copies of a transition AIG into CNF for
// bounded model checking. The AIG plays the transition relation: its first
// stateBits inputs are the current-state bits, the remaining inputs are
// free (chosen by the adversary each step), and its stateBits outputs are
// the next-state bits. Each Step emits only the clauses of that frame, so
// the caller can feed them to an incremental solver as a delta instead of
// re-encoding the whole unrolling: deepening a BMC query then costs one
// frame of clauses, not k.
type Unroller struct {
	tmpl      *cnf.Formula
	outs      []circuit.Wire
	stateBits int
	nIn       int
	state     []cnf.Lit
	nextVar   int
}

// NewUnroller prepares the transition template. The template CNF is built
// once via ToCNF; Step renames its variables per frame.
func NewUnroller(g *AIG, stateBits int) (*Unroller, error) {
	if stateBits <= 0 || stateBits > len(g.Inputs) {
		return nil, fmt.Errorf("aiger: %d state bits out of range for %d inputs", stateBits, len(g.Inputs))
	}
	if len(g.Outputs) != stateBits {
		return nil, fmt.Errorf("aiger: transition AIG has %d outputs, want %d next-state bits", len(g.Outputs), stateBits)
	}
	tmpl, outs, err := g.ToCNF()
	if err != nil {
		return nil, err
	}
	return &Unroller{tmpl: tmpl, outs: outs, stateBits: stateBits, nIn: len(g.Inputs)}, nil
}

// Init allocates the frame-0 state variables and returns the unit clauses
// pinning them to the initial value (little-endian). It must be called once
// before the first Step.
func (u *Unroller) Init(init uint64) []cnf.Clause {
	u.state = make([]cnf.Lit, u.stateBits)
	cls := make([]cnf.Clause, u.stateBits)
	for b := range u.state {
		u.nextVar++
		v := cnf.Lit(u.nextVar)
		u.state[b] = v
		if init&(1<<uint(b)) != 0 {
			cls[b] = cnf.Clause{v}
		} else {
			cls[b] = cnf.Clause{-v}
		}
	}
	return cls
}

// Step stamps one copy of the transition relation: state inputs bind to the
// current state literals, every other template variable gets a fresh global
// number. It returns the frame's clauses and the frame's free-input
// literals, and advances the current state to the mapped output wires.
func (u *Unroller) Step() (clauses []cnf.Clause, free []cnf.Lit) {
	m := make([]cnf.Lit, u.tmpl.NumVars+1)
	for b := 0; b < u.stateBits; b++ {
		m[b+1] = u.state[b]
	}
	free = make([]cnf.Lit, 0, u.nIn-u.stateBits)
	for i := u.stateBits; i < u.nIn; i++ {
		u.nextVar++
		m[i+1] = cnf.Lit(u.nextVar)
		free = append(free, m[i+1])
	}
	for v := u.nIn + 1; v <= u.tmpl.NumVars; v++ {
		u.nextVar++
		m[v] = cnf.Lit(u.nextVar)
	}
	rename := func(l cnf.Lit) cnf.Lit {
		ml := m[l.Var()]
		if l < 0 {
			return -ml
		}
		return ml
	}
	clauses = make([]cnf.Clause, len(u.tmpl.Clauses))
	for i, c := range u.tmpl.Clauses {
		mc := make(cnf.Clause, len(c))
		for j, l := range c {
			mc[j] = rename(l)
		}
		clauses[i] = mc
	}
	next := make([]cnf.Lit, u.stateBits)
	for b, w := range u.outs {
		next[b] = rename(cnf.Lit(w))
	}
	u.state = next
	return clauses, free
}

// State returns the current-state literals: the initial state after Init,
// the state after the latest frame once Step has run.
func (u *Unroller) State() []cnf.Lit { return u.state }

// StateEquals returns assumption literals asserting the current state holds
// the given value (little-endian).
func (u *Unroller) StateEquals(value uint64) []cnf.Lit {
	as := make([]cnf.Lit, u.stateBits)
	for b, l := range u.state {
		if value&(1<<uint(b)) != 0 {
			as[b] = l
		} else {
			as[b] = -l
		}
	}
	return as
}

// NumVars returns the highest global variable allocated so far.
func (u *Unroller) NumVars() int { return u.nextVar }

// CounterAIG builds the transition relation of a width-bit counter that
// adds 1 or 2 each step, the choice driven by one free input: inputs are
// the width state bits followed by the free bit, outputs the next state.
// It is the sequential twin of gen.BMCCounter's monolithic encoding and the
// standard workload for the incremental-unrolling benchmarks: after k steps
// the reachable values from 0 are exactly [k, 2k] (modulo wraparound), so
// state==2k+1 is a true invariant to refute-check at every depth.
func CounterAIG(width int) *AIG {
	return FromCircuitSpec(width+1, func(addAnd func(x, y int) int, in []int) []int {
		not := func(x int) int { return x ^ 1 }
		and := func(x, y int) int {
			// Constant folding keeps gates with 0/1 legs out of the AIG;
			// the builder would fold them anyway, this keeps the file tidy.
			switch {
			case x == 0 || y == 0:
				return 0
			case x == 1:
				return y
			case y == 1:
				return x
			}
			return addAnd(x, y)
		}
		or := func(x, y int) int { return not(and(not(x), not(y))) }
		xor := func(x, y int) int { return or(and(x, not(y)), and(not(x), y)) }
		state := in[:width]
		freeIn := in[width]
		// Addend is (free ? 2 : 1): bit 0 = ¬free, bit 1 = free, rest 0.
		addend := make([]int, width)
		for b := range addend {
			addend[b] = 0
		}
		addend[0] = not(freeIn)
		if width > 1 {
			addend[1] = freeIn
		}
		outs := make([]int, width)
		carry := 0
		for b := 0; b < width; b++ {
			s1 := xor(state[b], addend[b])
			outs[b] = xor(s1, carry)
			carry = or(and(state[b], addend[b]), and(s1, carry))
		}
		return outs
	})
}
