package lp

import (
	"math"
	"testing"
)

// This file is the sparse-LU vs dense-inverse equivalence suite: every
// instance family the package tests elsewhere (quick random LPs, the
// fuzz-decoder corpus, the pathological constructions, the bounded and
// warm-start panels) is solved on both basis representations, which
// must agree on status and objective and both return feasible points.
// The dense representation is the reference implementation the LU path
// is validated against, so these tests are the contract that lets the
// divergence guard fall back to it.

// luDenseTol is the objective agreement tolerance between the two
// representations (the acceptance bar of the LU migration).
const luDenseTol = 1e-6

// checkLPFeasible asserts sol.X satisfies every row and bound of p to
// tolerance and that the reported objective matches c·x.
func checkLPFeasible(t *testing.T, p *Problem, sol *Solution, tag string) {
	t.Helper()
	const tol = 1e-6
	obj := 0.0
	for v, x := range sol.X {
		if x < -tol {
			t.Fatalf("%s: X[%d] = %v negative", tag, v, x)
		}
		if u := p.Upper(v); x > u+tol*(1+u) {
			t.Fatalf("%s: X[%d] = %v above bound %v", tag, v, x, u)
		}
		obj += p.obj[v] * x
	}
	if math.Abs(obj-sol.Objective) > tol*(1+math.Abs(obj)) {
		t.Fatalf("%s: objective %v != c·x %v", tag, sol.Objective, obj)
	}
	for i, r := range p.rows {
		lhs := 0.0
		scale := 1.0
		for _, term := range r.terms {
			lhs += term.Coeff * sol.X[term.Var]
			if a := math.Abs(term.Coeff); a > scale {
				scale = a
			}
		}
		rtol := tol * (scale + math.Abs(r.rhs) + 1)
		switch r.rel {
		case LE:
			if lhs > r.rhs+rtol {
				t.Fatalf("%s: row %d: %v </= %v", tag, i, lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-rtol {
				t.Fatalf("%s: row %d: %v >/= %v", tag, i, lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > rtol {
				t.Fatalf("%s: row %d: %v != %v", tag, i, lhs, r.rhs)
			}
		}
	}
}

// solveLUvsDense solves p on both representations and asserts they
// agree on status and (when optimal) objective and feasibility. It
// returns both solutions so callers can chain their bases.
func solveLUvsDense(t *testing.T, p *Problem, tag string) (luSol, denseSol *Solution) {
	t.Helper()
	luSol, err := SolveWith(p, Options{})
	if err != nil {
		t.Fatalf("%s: lu: %v", tag, err)
	}
	denseSol, err = SolveWith(p, Options{denseBasis: true})
	if err != nil {
		t.Fatalf("%s: dense: %v", tag, err)
	}
	if luSol.Status == IterLimit || denseSol.Status == IterLimit {
		// Pathological instance: nothing to compare, but neither side may
		// have produced an answer the other refutes.
		return luSol, denseSol
	}
	if luSol.Status != denseSol.Status {
		t.Fatalf("%s: status lu=%v dense=%v", tag, luSol.Status, denseSol.Status)
	}
	if luSol.Status != Optimal {
		return luSol, denseSol
	}
	if d := math.Abs(luSol.Objective - denseSol.Objective); d > luDenseTol*(1+math.Abs(denseSol.Objective)) {
		t.Fatalf("%s: objective lu=%v dense=%v (|Δ|=%v)",
			tag, luSol.Objective, denseSol.Objective, d)
	}
	checkLPFeasible(t, p, luSol, tag+"/lu")
	checkLPFeasible(t, p, denseSol, tag+"/dense")
	return luSol, denseSol
}

// TestLUDenseEquivalenceQuick covers the quick suite's random feasible
// LPs on both representations.
func TestLUDenseEquivalenceQuick(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p, _ := randFeasibleLP(seed)
		solveLUvsDense(t, p, "quick")
	}
}

// TestLUDenseEquivalenceFuzzCorpus replays the fuzz decoder over a
// deterministic byte stream: mixed relations, finite bounds, and
// infeasible/degenerate rows, exactly the instance family
// FuzzEnginesAgree explores.
func TestLUDenseEquivalenceFuzzCorpus(t *testing.T) {
	seeds := [][]byte{
		{},
		{3, 1, 2, 3, 2, 1, 1, 0, 0, 5, 2, 2, 2, 1, 9},
		make([]byte, 40),
		{5, 4, 3, 2, 1, 0, 4, 1, 1, 1, 1, 1, 2, 15, 2, 2, 0, 3, 1, 1, 7},
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 80; i++ {
		buf := make([]byte, 24)
		for k := range buf {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			buf[k] = byte((x * 0x2545f4914f6cdd1d) >> 56)
		}
		seeds = append(seeds, buf)
	}
	for _, data := range seeds {
		solveLUvsDense(t, decodeLP(data), "fuzzcorpus")
	}
}

// TestLUDenseEquivalencePathological runs the pathological suite's
// constructions: Beale's cycling example, badly scaled coefficients,
// mass-redundant EQ rows, a long GE chain, plus an infeasible and an
// unbounded instance.
func TestLUDenseEquivalencePathological(t *testing.T) {
	beale := NewProblem()
	x4 := beale.AddVar("x4", -0.75)
	x5 := beale.AddVar("x5", 150)
	x6 := beale.AddVar("x6", -0.02)
	x7 := beale.AddVar("x7", 6)
	beale.AddConstraint(LE, 0, Term{x4, 0.25}, Term{x5, -60}, Term{x6, -1.0 / 25}, Term{x7, 9})
	beale.AddConstraint(LE, 0, Term{x4, 0.5}, Term{x5, -90}, Term{x6, -1.0 / 50}, Term{x7, 3})
	beale.AddConstraint(LE, 1, Term{x6, 1})
	lu, _ := solveLUvsDense(t, beale, "beale")
	if lu.Status == Optimal && math.Abs(lu.Objective-(-0.05)) > 1e-9 {
		t.Fatalf("beale: objective %v, want -0.05", lu.Objective)
	}

	scaled := NewProblem()
	sx := scaled.AddVar("x", 1e-6)
	sy := scaled.AddVar("y", 1e3)
	scaled.AddConstraint(GE, 1e6, Term{sx, 1e3}, Term{sy, 1e-3})
	scaled.AddConstraint(LE, 1e9, Term{sx, 1}, Term{sy, 1})
	solveLUvsDense(t, scaled, "badly-scaled")

	redundant := NewProblem()
	rx := redundant.AddVar("x", 1)
	ry := redundant.AddVar("y", 2)
	for i := 0; i < 20; i++ {
		redundant.AddConstraint(EQ, 6, Term{rx, 2}, Term{ry, 2})
	}
	redundant.AddConstraint(GE, 1, Term{ry, 1})
	solveLUvsDense(t, redundant, "redundant-rows")

	const n = 150
	chain := NewProblem()
	vars := make([]int, n)
	for i := range vars {
		vars[i] = chain.AddVar("x", 1)
	}
	for i := 0; i+1 < n; i++ {
		chain.AddConstraint(GE, 1, Term{vars[i], 1}, Term{vars[i+1], 1})
	}
	solveLUvsDense(t, chain, "long-chain")

	infeasible := NewProblem()
	iv := infeasible.AddVar("x", 1)
	infeasible.SetUpper(iv, 1)
	infeasible.AddConstraint(GE, 5, Term{iv, 1})
	luI, _ := solveLUvsDense(t, infeasible, "infeasible")
	if luI.Status != Infeasible {
		t.Fatalf("infeasible: status %v", luI.Status)
	}

	unbounded := NewProblem()
	uv := unbounded.AddVar("x", -1)
	unbounded.AddConstraint(GE, 1, Term{uv, 1})
	luU, _ := solveLUvsDense(t, unbounded, "unbounded")
	if luU.Status != Unbounded {
		t.Fatalf("unbounded: status %v", luU.Status)
	}
}

// TestLUDenseEquivalenceBounded covers the bounded suite: native upper
// bounds, bound-flip-only optima, the engine-agreement panel, and the
// rebuild sweep the warm-start workflows use.
func TestLUDenseEquivalenceBounded(t *testing.T) {
	panel := []*Problem{boundedFixture()}

	p := NewProblem()
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

	p = NewProblem()
	p.AddVar("x", 1)
	p.SetUpper(0, 1)
	p.AddConstraint(GE, 5, Term{0, 1})
	panel = append(panel, p)

	flips := NewProblem()
	flips.AddVar("a", -1)
	flips.AddVar("b", 2)
	flips.AddVar("c", -3)
	flips.SetUpper(0, 4)
	flips.SetUpper(1, 9)
	flips.SetUpper(2, 2)
	flips.AddConstraint(LE, 100, Term{0, 1}, Term{1, 1}, Term{2, 1})
	panel = append(panel, flips)

	for _, rhs := range []float64{6, 8, 5, 7.5, 3} {
		panel = append(panel, rebuildFixture(rhs))
	}
	for i, p := range panel {
		_ = i
		solveLUvsDense(t, p, "bounded")
	}
}

// TestLUDenseWarmEquivalence chains warm starts across both
// representations, including cross-representation handoffs: a basis
// exported by an LU solve warm-starts a dense solve (whose adoptWarm
// has no inverse to extend and must refactorize) and vice versa. Every
// link must match the cold dense reference optimum.
func TestLUDenseWarmEquivalence(t *testing.T) {
	first, err := Solve(rebuildFixture(7))
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold: %v %v", first.Status, err)
	}
	basis := first.Basis
	for step, rhs := range []float64{6, 8, 5, 7.5, 3, 7} {
		p := rebuildFixture(rhs)
		cold, err := SolveWith(p, Options{denseBasis: true})
		if err != nil || cold.Status != Optimal {
			t.Fatalf("rhs=%v: cold dense: %v %v", rhs, cold.Status, err)
		}
		// Alternate the representation receiving the warm basis, so both
		// same-rep adoption and cross-rep refactorization are exercised.
		dense := step%2 == 1
		warm, err := SolveWith(p, Options{Warm: basis, denseBasis: dense})
		if err != nil {
			t.Fatalf("rhs=%v dense=%v: %v", rhs, dense, err)
		}
		if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-8 {
			t.Fatalf("rhs=%v dense=%v: warm %v obj %v, cold obj %v",
				rhs, dense, warm.Status, warm.Objective, cold.Objective)
		}
		basis = warm.Basis
	}

	// Appended-cut repair on both representations from the same basis.
	cut := rebuildFixture(7)
	cut.AddConstraint(LE, 10, Term{0, 1}, Term{1, 2})
	coldCut, err := SolveWith(cut, Options{denseBasis: true})
	if err != nil || coldCut.Status != Optimal {
		t.Fatalf("cut cold: %v %v", coldCut.Status, err)
	}
	for _, dense := range []bool{false, true} {
		warm, err := SolveWith(cut, Options{Warm: basis, denseBasis: dense})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || math.Abs(warm.Objective-coldCut.Objective) > 1e-8 {
			t.Fatalf("cut dense=%v: warm %v obj %v, cold obj %v",
				dense, warm.Status, warm.Objective, coldCut.Objective)
		}
	}
}
