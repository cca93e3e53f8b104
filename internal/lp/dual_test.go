package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestDualsOnKnownLP checks shadow prices on a textbook LP.
func TestDualsOnKnownLP(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, y <= 3. Optimum (1, 3), obj -7.
	// Shadow prices: relaxing x+y <= 5 gives (2,3) obj -8: dy/db = -1.
	// Relaxing y <= 4 gives (0,4) obj -8: dy/db = -1.
	p := NewProblem()
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -2)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 3, Term{y, 1})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Dual) != 2 {
		t.Fatalf("dual length = %d", len(sol.Dual))
	}
	if !approx(sol.Dual[0], -1, 1e-9) || !approx(sol.Dual[1], -1, 1e-9) {
		t.Errorf("duals = %v, want (-1, -1)", sol.Dual)
	}
}

// TestDualProperties asserts strong duality, dual feasibility, sign
// conventions, and complementary slackness on random feasible LPs.
func TestDualProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 60; trial++ {
		p, _ := randFeasibleLP(rng.Int63())
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		const tol = 1e-6
		// Strong duality: b'y == c'x.
		dualObj := 0.0
		for i, r := range p.rows {
			dualObj += r.rhs * sol.Dual[i]
		}
		if math.Abs(dualObj-sol.Objective) > tol*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: strong duality violated: b'y=%v, obj=%v\n%s", trial, dualObj, sol.Objective, p)
		}
		// Sign convention: y <= 0 for <=-rows, y >= 0 for >=-rows.
		for i, r := range p.rows {
			switch r.rel {
			case LE:
				if sol.Dual[i] > tol {
					t.Fatalf("trial %d: LE row %d has positive dual %v", trial, i, sol.Dual[i])
				}
			case GE:
				if sol.Dual[i] < -tol {
					t.Fatalf("trial %d: GE row %d has negative dual %v", trial, i, sol.Dual[i])
				}
			}
		}
		// Dual feasibility: A'y <= c (columns of nonnegative primal
		// variables).
		colSum := make([]float64, p.NumVars())
		for i, r := range p.rows {
			for _, term := range r.terms {
				colSum[term.Var] += term.Coeff * sol.Dual[i]
			}
		}
		for v := 0; v < p.NumVars(); v++ {
			if colSum[v] > p.obj[v]+tol {
				t.Fatalf("trial %d: dual infeasible at var %d: A'y=%v > c=%v\n%s", trial, v, colSum[v], p.obj[v], p)
			}
			// Complementary slackness: x_v > 0 => A'y == c.
			if sol.X[v] > tol && math.Abs(colSum[v]-p.obj[v]) > 1e-5*(1+math.Abs(p.obj[v])) {
				t.Fatalf("trial %d: complementary slackness violated at var %d (x=%v, A'y=%v, c=%v)",
					trial, v, sol.X[v], colSum[v], p.obj[v])
			}
		}
		// Row-side complementary slackness: slack > 0 => y == 0.
		for i, r := range p.rows {
			lhs := 0.0
			for _, term := range r.terms {
				lhs += term.Coeff * sol.X[term.Var]
			}
			if r.rel == LE && r.rhs-lhs > tol && math.Abs(sol.Dual[i]) > 1e-5 {
				t.Fatalf("trial %d: slack LE row %d has nonzero dual %v", trial, i, sol.Dual[i])
			}
			if r.rel == GE && lhs-r.rhs > tol && math.Abs(sol.Dual[i]) > 1e-5 {
				t.Fatalf("trial %d: slack GE row %d has nonzero dual %v", trial, i, sol.Dual[i])
			}
		}
	}
}

// TestDualsOnTISEStyleLP exercises duals on an LP with EQ rows and a
// flipped (negative-rhs) row.
func TestDualsWithEqAndFlippedRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, -1, Term{x, -1}) // x >= 1, written flipped
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimum: y as small as possible -> x=4? x >= 1; min 2x+3y with
	// x+y=4: put everything on x: x=4, y=0, obj 8.
	if !approx(sol.Objective, 8, 1e-9) {
		t.Fatalf("objective = %v, want 8", sol.Objective)
	}
	dualObj := 0.0
	for i, r := range p.rows {
		dualObj += r.rhs * sol.Dual[i]
	}
	if !approx(dualObj, 8, 1e-6) {
		t.Errorf("strong duality: b'y = %v, want 8 (duals %v)", dualObj, sol.Dual)
	}
}

// TestRevisedDualsMatchDense checks the float engine's two basis
// representations (sparse LU and the dense reference inverse) both
// produce duals satisfying strong duality at the rational optimum.
func TestRevisedDualsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 30; trial++ {
		p, _ := randFeasibleLP(rng.Int63())
		d, err := SolveWith(p, Options{denseBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		rat, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		if rat.Status != Optimal {
			continue
		}
		if d.Status != Optimal || r.Status != Optimal {
			t.Fatalf("trial %d: status dense=%v lu=%v, rational optimal", trial, d.Status, r.Status)
		}
		// Both must satisfy strong duality against the exact optimum
		// (dual vectors themselves may differ at degenerate optima).
		ro := rat.ObjectiveFloat()
		for name, sol := range map[string]*Solution{"dense": d, "lu": r} {
			dualObj := 0.0
			for i, row := range p.rows {
				dualObj += row.rhs * sol.Dual[i]
			}
			if math.Abs(dualObj-ro) > 1e-6*(1+math.Abs(ro)) {
				t.Fatalf("trial %d %s: b'y=%v != rational obj=%v", trial, name, dualObj, ro)
			}
		}
	}
}
