package neuroselect_test

import (
	"fmt"
	"strings"

	"neuroselect"
)

// ExampleSolve demonstrates programmatic formula construction and solving.
func ExampleSolve() {
	f := neuroselect.NewFormula(2)
	f.MustAddClause(1, 2) // x1 ∨ x2
	f.MustAddClause(-1)   // ¬x1
	res, err := neuroselect.Solve(f, neuroselect.SolveConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Status)
	fmt.Println("x2 =", res.Model[2])
	// Output:
	// SAT
	// x2 = true
}

// ExampleSolve_frequencyPolicy selects the paper's propagation-frequency
// deletion policy explicitly.
func ExampleSolve_frequencyPolicy() {
	f, _ := neuroselect.ParseDIMACS(strings.NewReader(
		"p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"))
	res, err := neuroselect.Solve(f, neuroselect.SolveConfig{Policy: "frequency"})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Status)
	// Output:
	// UNSAT
}

// ExampleCheckProof certifies an UNSAT answer with a DRAT proof verified by
// the independent checker.
func ExampleCheckProof() {
	f, _ := neuroselect.ParseDIMACS(strings.NewReader(
		"p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"))
	var proof strings.Builder
	w := neuroselect.NewProofWriter(&proof)
	res, _ := neuroselect.Solve(f, neuroselect.SolveConfig{Proof: w})
	_ = w.Flush()
	fmt.Println(res.Status)
	fmt.Println("proof accepted:", neuroselect.CheckProof(f, strings.NewReader(proof.String())) == nil)
	// Output:
	// UNSAT
	// proof accepted: true
}

// ExampleSolveAssuming answers an incremental-style query.
func ExampleSolveAssuming() {
	f := neuroselect.NewFormula(2)
	f.MustAddClause(1, 2)
	res, _ := neuroselect.SolveAssuming(f, []neuroselect.Lit{-1}, neuroselect.SolveConfig{})
	fmt.Println(res.Status, res.Model[2])
	// Output:
	// SAT true
}
