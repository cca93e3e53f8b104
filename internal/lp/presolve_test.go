package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestPresolveFixesSingletonEquality(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint(EQ, 3, Term{x, 1})
	p.AddConstraint(GE, 5, Term{x, 1}, Term{y, 1})
	ps := Presolve(p)
	if ps.Status != Optimal {
		t.Fatalf("status = %v", ps.Status)
	}
	if ps.Problem.NumVars() != 1 {
		t.Errorf("reduced vars = %d, want 1 (x fixed)", ps.Problem.NumVars())
	}
	sol, err := SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 5, 1e-9) { // x=3, y=2
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
	if !approx(sol.X[x], 3, 1e-9) || !approx(sol.X[y], 2, 1e-9) {
		t.Errorf("x = %v, want (3, 2)", sol.X)
	}
}

func TestPresolveDropsRedundantRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(GE, -5, Term{x, 1}) // implied by x >= 0
	p.AddConstraint(LE, 4, Term{x, 1})
	p.AddConstraint(LE, 4, Term{x, 1}) // duplicate
	p.AddConstraint(LE, 0, Term{x, 0}, Term{x, 0})
	ps := Presolve(p)
	if ps.Status != Optimal {
		t.Fatalf("status = %v", ps.Status)
	}
	if got := ps.Problem.NumRows(); got != 1 {
		t.Errorf("reduced rows = %d, want 1", got)
	}
}

func TestPresolveDetectsInfeasible(t *testing.T) {
	cases := []func(p *Problem, x int){
		func(p *Problem, x int) { p.AddConstraint(EQ, -2, Term{x, 1}) },                                    // x = -2
		func(p *Problem, x int) { p.AddConstraint(LE, -3, Term{x, 1}) },                                    // x <= -3
		func(p *Problem, x int) { p.AddConstraint(GE, 2, Term{x, -1}) },                                    // -x >= 2
		func(p *Problem, x int) { p.AddConstraint(EQ, 1); p.AddConstraint(LE, 5, Term{x, 1}) },             // 0 = 1
		func(p *Problem, x int) { p.AddConstraint(EQ, 2, Term{x, 1}); p.AddConstraint(EQ, 3, Term{x, 1}) }, // conflicting dupes
	}
	for i, add := range cases {
		p := NewProblem()
		x := p.AddVar("x", 1)
		add(p, x)
		if ps := Presolve(p); ps.Status != Infeasible {
			t.Errorf("case %d: status = %v, want infeasible", i, ps.Status)
		}
	}
}

func TestPresolveDetectsUnboundedFreeColumn(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", -1) // appears in no row, negative cost
	y := p.AddVar("y", 1)
	p.AddConstraint(LE, 4, Term{y, 1})
	if ps := Presolve(p); ps.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", ps.Status)
	}
}

func TestPresolveFixesZeroBoundedVars(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -5) // would love to grow...
	y := p.AddVar("y", 1)
	p.AddConstraint(LE, 0, Term{x, 1}) // ...but x <= 0 fixes it at 0
	p.AddConstraint(GE, 2, Term{y, 1})
	sol, err := SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 2, 1e-9) {
		t.Errorf("got %v obj %v, want optimal 2", sol.Status, sol.Objective)
	}
	if sol.X[x] != 0 {
		t.Errorf("x = %v, want 0", sol.X[x])
	}
}

// TestPresolveAgreesWithDirect cross-checks SolvePresolved against the
// exact rational solve of the unreduced problem on random feasible
// LPs.
func TestPresolveAgreesWithDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 50; trial++ {
		p, _ := randFeasibleLP(rng.Int63())
		// Sprinkle in singleton rows to exercise the reductions.
		for v := 0; v < p.NumVars(); v++ {
			switch rng.Intn(4) {
			case 0:
				p.AddConstraint(LE, float64(rng.Intn(6)), Term{v, 1})
			case 1:
				p.AddConstraint(GE, -1, Term{v, 1})
			}
		}
		direct, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := SolvePresolved(p)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Status != pre.Status {
			t.Fatalf("trial %d: status %v vs %v\n%s", trial, direct.Status, pre.Status, p)
		}
		if direct.Status == Optimal {
			ro := direct.ObjectiveFloat()
			if math.Abs(ro-pre.Objective) > 1e-6*(1+math.Abs(ro)) {
				t.Fatalf("trial %d: objective %v vs %v\n%s", trial, ro, pre.Objective, p)
			}
		}
	}
}

func TestRestoreDimensions(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint(EQ, 2, Term{x, 1})
	p.AddConstraint(LE, 9, Term{y, 1}, Term{x, 1})
	ps := Presolve(p)
	if ps.Status != Optimal {
		t.Fatal(ps.Status)
	}
	red := make([]float64, ps.Problem.NumVars())
	for i := range red {
		red[i] = 7
	}
	full := ps.Restore(red)
	if len(full) != 2 || full[x] != 2 || full[y] != 7 {
		t.Errorf("restore = %v", full)
	}
}
