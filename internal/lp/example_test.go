package lp_test

import (
	"fmt"

	"calib/internal/lp"
)

// Example solves a tiny diet-style LP with the float and the exact
// rational engine.
func Example() {
	p := lp.NewProblem()
	x := p.AddVar("x", 2) // cost per unit of x
	y := p.AddVar("y", 3)
	p.AddConstraint(lp.GE, 10, lp.Term{Var: x, Coeff: 1}, lp.Term{Var: y, Coeff: 2}) // nutrition
	p.AddConstraint(lp.LE, 8, lp.Term{Var: x, Coeff: 1})                             // supply

	float, _ := lp.Solve(p)
	rational, _ := lp.SolveRational(p)
	fmt.Printf("float:    %.1f\n", float.Objective)
	fmt.Printf("rational: %.1f\n", rational.ObjectiveFloat())
	// Both agree: x=8, y=1 -> 2*8 + 3*1 = 19.
	// Output:
	// float:    19.0
	// rational: 19.0
}

// ExampleSolve_duals reads shadow prices off a solved LP.
func ExampleSolve_duals() {
	p := lp.NewProblem()
	x := p.AddVar("x", -1) // maximize x == minimize -x
	p.AddConstraint(lp.LE, 4, lp.Term{Var: x, Coeff: 1})
	sol, _ := lp.Solve(p)
	fmt.Printf("objective %v, shadow price of the bound %v\n", sol.Objective, sol.Dual[0])
	// Output:
	// objective -4, shadow price of the bound -1
}

// ExamplePresolve shows variable fixing by a singleton equality.
func ExamplePresolve() {
	p := lp.NewProblem()
	p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint(lp.EQ, 3, lp.Term{Var: 0, Coeff: 1}) // x = 3
	p.AddConstraint(lp.GE, 5, lp.Term{Var: 0, Coeff: 1}, lp.Term{Var: y, Coeff: 1})
	ps := lp.Presolve(p)
	fmt.Println("variables after presolve:", ps.Problem.NumVars())
	sol, _ := lp.SolvePresolved(p)
	fmt.Println("objective:", sol.Objective)
	// Output:
	// variables after presolve: 1
	// objective: 5
}
