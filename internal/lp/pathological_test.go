package lp

import (
	"math"
	"testing"
)

// TestBealeCycling runs Beale's classic example on which the textbook
// simplex with Dantzig pricing cycles forever without an anti-cycling
// rule. The Bland fallback must terminate at the optimum -0.05.
//
//	min -0.75x4 + 150x5 - 0.02x6 + 6x7
//	s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
//	     0.50x4 - 90x5 - 0.02x6 + 3x7 <= 0
//	     x6 <= 1
func TestBealeCycling(t *testing.T) {
	p := NewProblem()
	x4 := p.AddVar("x4", -0.75)
	x5 := p.AddVar("x5", 150)
	x6 := p.AddVar("x6", -0.02)
	x7 := p.AddVar("x7", 6)
	p.AddConstraint(LE, 0, Term{x4, 0.25}, Term{x5, -60}, Term{x6, -1.0 / 25}, Term{x7, 9})
	p.AddConstraint(LE, 0, Term{x4, 0.5}, Term{x5, -90}, Term{x6, -1.0 / 50}, Term{x7, 3})
	p.AddConstraint(LE, 1, Term{x6, 1})
	for name, solve := range map[string]func(*Problem) (*Solution, error){
		"lu":      Solve,
		"dense":   func(p *Problem) (*Solution, error) { return SolveWith(p, Options{denseBasis: true}) },
		"tableau": func(p *Problem) (*Solution, error) { return SolveTableau(p, nil) },
	} {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v, want optimal", name, sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
			t.Errorf("%s: objective = %v, want -0.05", name, sol.Objective)
		}
	}
}

// TestBadlyScaledLP mixes coefficients across nine orders of magnitude.
func TestBadlyScaledLP(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1e-6)
	y := p.AddVar("y", 1e3)
	p.AddConstraint(GE, 1e6, Term{x, 1e3}, Term{y, 1e-3})
	p.AddConstraint(LE, 1e9, Term{x, 1}, Term{y, 1})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimum: satisfy the GE row with x alone: x = 1000, cost 1e-3.
	if math.Abs(sol.Objective-1e-3) > 1e-6 {
		t.Errorf("objective = %v, want 1e-3", sol.Objective)
	}
	r, err := SolveRational(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-r.ObjectiveFloat()) > 1e-6 {
		t.Errorf("float %v vs rational %v", sol.Objective, r.ObjectiveFloat())
	}
}

// TestManyRedundantRows stresses phase-1 artificial purging.
func TestManyRedundantRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	for i := 0; i < 20; i++ {
		p.AddConstraint(EQ, 6, Term{x, 2}, Term{y, 2}) // same plane, 20 times
	}
	p.AddConstraint(GE, 1, Term{y, 1})
	sol := solveBoth(t, p)
	if math.Abs(sol.Objective-(2+2)) > 1e-9 { // x=2, y=1
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

// TestLongChainLP exercises a few hundred rows/vars for iteration
// robustness (not speed).
func TestLongChainLP(t *testing.T) {
	const n = 150
	p := NewProblem()
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar("x", 1)
	}
	// x_i + x_{i+1} >= 1 chain: optimum alternates, objective ~ n/2.
	for i := 0; i+1 < n; i++ {
		p.AddConstraint(GE, 1, Term{vars[i], 1}, Term{vars[i+1], 1})
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	want := float64(n) / 2 // LP optimum: x_i = 1/2 everywhere = 75
	if math.Abs(sol.Objective-want/1) > 1.0 {
		// Accept either the 0.5-everywhere optimum (75) or an
		// equivalent vertex; the optimum value is (n-1+1)/2 = 75.
		t.Errorf("objective = %v, want about %v", sol.Objective, want)
	}
}
