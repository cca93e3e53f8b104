package lp

import (
	"math"
	"testing"
)

// boundedFixture builds min -x0 - 2*x1 subject to x0 + x1 <= 7,
// x0 <= 3, x1 <= 5 with the bounds as native upper bounds. Optimum:
// x1 = 5, x0 = 2, objective -12.
func boundedFixture() *Problem {
	p := NewProblem()
	p.AddVar("x0", -1)
	p.AddVar("x1", -2)
	p.SetUpper(0, 3)
	p.SetUpper(1, 5)
	p.AddConstraint(LE, 7, Term{0, 1}, Term{1, 1})
	return p
}

func TestBoundedRevisedSimple(t *testing.T) {
	p := boundedFixture()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("objective = %v, want -12", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-5) > 1e-9 {
		t.Fatalf("X = %v, want [2 5]", sol.X)
	}
	if sol.Basis == nil {
		t.Fatal("float engine must return a basis")
	}
}

// TestBoundedOnlyFlips has no rows at all: the optimum is reached
// purely by bound flips (every negative-cost variable to its bound).
func TestBoundedOnlyFlips(t *testing.T) {
	p := NewProblem()
	p.AddVar("a", -1)
	p.AddVar("b", 2)
	p.AddVar("c", -3)
	p.SetUpper(0, 4)
	p.SetUpper(1, 9)
	p.SetUpper(2, 2)
	// One slack-only row keeps m > 0 without constraining anything.
	p.AddConstraint(LE, 100, Term{0, 1}, Term{1, 1}, Term{2, 1})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-(-10)) > 1e-9 {
		t.Fatalf("got %v obj %v, want Optimal obj -10", sol.Status, sol.Objective)
	}
	want := []float64{4, 0, 2}
	for i, w := range want {
		if math.Abs(sol.X[i]-w) > 1e-9 {
			t.Fatalf("X = %v, want %v", sol.X, want)
		}
	}
}

// TestBoundedEnginesAgree cross-checks the float engine (native
// bounds) against the rational engine (bounds expanded to rows) on a
// panel of bounded problems.
func TestBoundedEnginesAgree(t *testing.T) {
	panel := []*Problem{}
	p := boundedFixture()
	panel = append(panel, p)

	p = NewProblem()
	p.AddVar("x", -5)
	p.AddVar("y", -4)
	p.AddVar("z", -3)
	p.SetUpper(0, 2)
	p.SetUpper(2, 4)
	p.AddConstraint(LE, 11, Term{0, 2}, Term{1, 3}, Term{2, 1})
	p.AddConstraint(LE, 8, Term{0, 4}, Term{1, 1}, Term{2, 2})
	panel = append(panel, p)

	p = NewProblem()
	p.AddVar("x", 1)
	p.AddVar("y", -1)
	p.SetUpper(1, 3)
	p.AddConstraint(GE, 2, Term{0, 1}, Term{1, 1})
	p.AddConstraint(EQ, 4, Term{0, 1}, Term{1, 2})
	panel = append(panel, p)

	// Infeasible: bound conflicts with a GE row.
	p = NewProblem()
	p.AddVar("x", 1)
	p.SetUpper(0, 1)
	p.AddConstraint(GE, 5, Term{0, 1})
	panel = append(panel, p)

	for i, p := range panel {
		float, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		rational, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		if float.Status != rational.Status {
			t.Fatalf("panel[%d]: status float=%v rational=%v", i, float.Status, rational.Status)
		}
		if rational.Status != Optimal {
			continue
		}
		if ro := rational.ObjectiveFloat(); math.Abs(float.Objective-ro) > 1e-6 {
			t.Fatalf("panel[%d]: float %v != rational %v", i, float.Objective, ro)
		}
	}
}

// rebuild constructs a structurally identical copy of boundedFixture
// with a different constraint rhs, as the warm-start workflows do.
func rebuildFixture(rhs float64) *Problem {
	p := NewProblem()
	p.AddVar("x0", -1)
	p.AddVar("x1", -2)
	p.SetUpper(0, 3)
	p.SetUpper(1, 5)
	p.AddConstraint(LE, rhs, Term{0, 1}, Term{1, 1})
	return p
}

func TestWarmStartRHSChange(t *testing.T) {
	first, err := Solve(rebuildFixture(7))
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold solve: %v %v", first.Status, err)
	}
	for _, rhs := range []float64{6, 8, 5, 7.5, 3} {
		p2 := rebuildFixture(rhs)
		warm, err := SolveWith(p2, Options{Warm: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p2)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("rhs=%v: warm status %v != cold %v", rhs, warm.Status, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-8 {
			t.Fatalf("rhs=%v: warm obj %v != cold %v", rhs, warm.Objective, cold.Objective)
		}
		first = warm // chain bases across the sweep
	}
}

func TestWarmStartAppendedCuts(t *testing.T) {
	base := rebuildFixture(7)
	first, err := Solve(base)
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold solve: %v %v", first.Status, err)
	}
	// Append a violated cut (the old optimum x=[2 5] breaks x0+2*x1<=10)
	// and re-solve warm: the dual simplex repairs the old basis.
	cut := rebuildFixture(7)
	cut.AddConstraint(LE, 10, Term{0, 1}, Term{1, 2})
	warm, err := SolveWith(cut, Options{Warm: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(cut)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-8 {
		t.Fatalf("warm obj %v != cold %v", warm.Objective, cold.Objective)
	}
	rational, err := SolveRational(cut)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-rational.ObjectiveFloat()) > 1e-8 {
		t.Fatalf("warm obj %v != rational %v", warm.Objective, rational.ObjectiveFloat())
	}
}

func TestWarmStartInfeasibleCut(t *testing.T) {
	base := rebuildFixture(7)
	first, err := Solve(base)
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold solve: %v %v", first.Status, err)
	}
	bad := rebuildFixture(7)
	bad.AddConstraint(GE, 100, Term{0, 1}, Term{1, 1}) // x0+x1 >= 100 impossible
	warm, err := SolveWith(bad, Options{Warm: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", warm.Status)
	}
}

// TestWarmStartStaleBasis feeds a basis from an unrelated problem:
// incompatible shapes must fall back to a cold solve, and a
// compatible-but-arbitrary basis must still yield the right optimum.
func TestWarmStartStaleBasis(t *testing.T) {
	p := boundedFixture()
	// Shape mismatch: silently cold.
	sol, err := SolveWith(p, Options{Warm: &Basis{Basic: []int{0, 1}, Vars: 9, Rows: 2}})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("mismatched basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
	// Compatible but arbitrary: x0 basic in the single row.
	sol, err = SolveWith(p, Options{Warm: &Basis{Basic: []int{0}, Vars: 2, Rows: 1}})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("arbitrary basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
	// Arbitrary with a bogus AtUpper assignment.
	sol, err = SolveWith(p, Options{Warm: &Basis{Basic: []int{2}, AtUpper: []int{0, 1}, Vars: 2, Rows: 1}})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("at-upper basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
}

func TestSetUpperValidation(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", 1)
	for _, bad := range []func(){
		func() { p.SetUpper(1, 1) },
		func() { p.SetUpper(-1, 1) },
		func() { p.SetUpper(0, -2) },
		func() { p.SetUpper(0, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
	p.SetUpper(0, 4)
	if p.Upper(0) != 4 {
		t.Fatalf("Upper = %v, want 4", p.Upper(0))
	}
}

// TestBoundedPresolve checks bound handling through the presolve path:
// an unused variable with negative cost and a finite bound is fixed at
// that bound instead of declaring unboundedness.
func TestBoundedPresolve(t *testing.T) {
	p := NewProblem()
	p.AddVar("used", 1)
	p.AddVar("free", -2) // appears in no row
	p.SetUpper(1, 6)
	p.AddConstraint(GE, 3, Term{0, 1})
	sol, err := SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(3-12)) > 1e-9 {
		t.Fatalf("objective = %v, want -9", sol.Objective)
	}
	if math.Abs(sol.X[1]-6) > 1e-9 {
		t.Fatalf("X[1] = %v, want 6", sol.X[1])
	}
}
