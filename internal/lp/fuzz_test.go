package lp

import (
	"math"
	"testing"
)

// decodeLP deterministically derives a small LP from fuzz bytes.
// Coefficients stay small and integral so the exact rational engine is
// a meaningful referee.
func decodeLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	p := NewProblem()
	nv := 1 + next()%6
	for v := 0; v < nv; v++ {
		p.AddVar("x", float64(next()%9-4))
	}
	// Finite upper bounds on a fuzz-chosen subset of variables: the
	// float engine takes them through its native bounded ratio test
	// while the tableau and rational engines materialize rows, so agreement
	// exercises the bound-flip logic against the row formulation.
	for v := 0; v < nv; v++ {
		if next()%3 == 0 {
			p.SetUpper(v, float64(next()%12))
		}
	}
	nc := next() % 6
	for c := 0; c < nc; c++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if coef := next()%7 - 3; coef != 0 {
				terms = append(terms, Term{v, float64(coef)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := Rel(next() % 3)
		rhs := float64(next()%21 - 10)
		p.AddConstraint(rel, rhs, terms...)
	}
	// A box keeps everything bounded so "unbounded" cannot hinge on
	// float round-off.
	for v := 0; v < nv; v++ {
		p.AddConstraint(LE, 50, Term{v, 1})
	}
	return p
}

// FuzzEnginesAgree checks that the float engine on its sparse LU
// basis, the float engine on the dense reference basis, the dense
// tableau and the exact rational engine agree on status and optimum
// for arbitrary small LPs, and that none of them panic.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 3, 2, 1, 1, 0, 0, 5, 2, 2, 2, 1, 9})
	f.Add(make([]byte, 40))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 4, 1, 1, 1, 1, 1, 2, 15, 2, 2, 0, 3, 1, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		lu, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := SolveWith(p, Options{denseBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		tableau, err := SolveTableau(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		rational, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		if rational.Status == IterLimit || lu.Status == IterLimit ||
			dense.Status == IterLimit || tableau.Status == IterLimit {
			return // pathological; nothing to compare
		}
		if lu.Status != rational.Status || dense.Status != rational.Status ||
			tableau.Status != rational.Status {
			t.Fatalf("status disagreement: lu=%v dense=%v tableau=%v rational=%v\n%s",
				lu.Status, dense.Status, tableau.Status, rational.Status, p)
		}
		if rational.Status == Optimal {
			ro := rational.ObjectiveFloat()
			tol := 1e-5 * (1 + math.Abs(ro))
			if math.Abs(lu.Objective-ro) > tol {
				t.Fatalf("lu objective %v != rational %v\n%s", lu.Objective, ro, p)
			}
			if math.Abs(dense.Objective-ro) > tol {
				t.Fatalf("dense-basis objective %v != rational %v\n%s", dense.Objective, ro, p)
			}
			if math.Abs(tableau.Objective-ro) > tol {
				t.Fatalf("tableau objective %v != rational %v\n%s", tableau.Objective, ro, p)
			}
		}
	})
}
