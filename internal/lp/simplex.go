package lp

import "math"

// tableau is a dense simplex tableau: m constraint rows plus one cost
// row, n columns plus one right-hand-side column, stored row-major.
type tableau struct {
	m, n  int // constraint rows, columns excluding rhs
	a     []float64
	basis []int // basic variable of each constraint row
	nvar  int   // structural variables (prefix of columns)
	artLo int   // first artificial column; columns >= artLo are artificial
	// Dual extraction: row i's dual value is dualMult[i] times the
	// final reduced cost of column dualCol[i] (the row's slack,
	// surplus, or artificial), with dualMult folding in both the
	// column's unit sign and any rhs-normalization flip.
	dualCol  []int
	dualMult []float64
}

func (t *tableau) at(i, j int) float64     { return t.a[i*(t.n+1)+j] }
func (t *tableau) set(i, j int, v float64) { t.a[i*(t.n+1)+j] = v }
func (t *tableau) row(i int) []float64     { return t.a[i*(t.n+1) : (i+1)*(t.n+1)] }
func (t *tableau) rhs(i int) float64       { return t.at(i, t.n) }

// SolveTableau runs the two-phase simplex on a dense tableau: Dantzig
// pricing with a Bland's-rule fallback, finite variable upper bounds
// materialized as explicit rows (their duals are trimmed from
// Solution.Dual). check, when non-nil, is consulted once per pivot (a
// dense pivot is O(m*n), so the per-pivot check is noise); on abort
// the Solution carries Status Aborted and the check's error is
// returned.
//
// Solve is the float engine; SolveTableau is kept only for mm.LPRound.
// Its LP has many optimal vertices and LPRound rounds the returned
// marginals at random, so its schedules depend on which vertex the
// engine lands on, and the revised engine lands on different ones
// (testdata/golden/lp_paths.json pins the tableau's answers).
func SolveTableau(p *Problem, check CheckFunc) (*Solution, error) {
	p, mOrig := p.withBoundRows()
	t, hasArt := build(p)
	sol := &Solution{}
	if hasArt {
		// Phase 1: minimize the sum of artificials.
		cost := make([]float64, t.n)
		for j := t.artLo; j < t.n; j++ {
			cost[j] = 1
		}
		t.installCost(cost)
		st, iters, err := t.iterate(cost, true, check)
		sol.Iterations += iters
		if err != nil {
			sol.Status = st
			return sol, err
		}
		if st != Optimal {
			// Phase 1 is bounded below by 0, so non-optimal means the
			// iteration cap was hit.
			sol.Status = IterLimit
			return sol, nil
		}
		if w := -t.at(t.m, t.n); w > epsPhase1*(1+math.Abs(w)) {
			sol.Status = Infeasible
			return sol, nil
		}
		t.purgeArtificials()
	}
	// Phase 2: minimize the real objective.
	cost := make([]float64, t.n)
	copy(cost, p.obj)
	t.installCost(cost)
	st, iters, err := t.iterate(cost, false, check)
	sol.Iterations += iters
	sol.Status = st
	if err != nil {
		return sol, err
	}
	if st != Optimal {
		return sol, nil
	}
	sol.X = make([]float64, p.NumVars())
	for i, b := range t.basis {
		if b < p.NumVars() {
			sol.X[b] = t.rhs(i)
		}
	}
	for v, x := range sol.X {
		if x < 0 {
			// Tiny negative values are numerical noise; clamp.
			sol.X[v] = 0
		}
		sol.Objective += p.obj[v] * sol.X[v]
	}
	sol.Dual = make([]float64, t.m)
	crow := t.row(t.m)
	for i := 0; i < t.m; i++ {
		sol.Dual[i] = t.dualMult[i] * crow[t.dualCol[i]]
	}
	sol.Dual = sol.Dual[:mOrig]
	return sol, nil
}

// build converts p into a tableau in standard form: rhs normalized to
// be nonnegative, one slack per <=, one surplus per >=, one artificial
// per >= and =. Returns the tableau and whether artificials exist.
func build(p *Problem) (*tableau, bool) {
	m := p.NumRows()
	nSlack, nArt := 0, 0
	for _, r := range p.rows {
		rel := normalizedRel(r)
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	n := p.NumVars() + nSlack + nArt
	t := &tableau{
		m:     m,
		n:     n,
		a:     make([]float64, (m+1)*(n+1)),
		basis: make([]int, m),
		nvar:  p.NumVars(),
		artLo: p.NumVars() + nSlack,
	}
	t.dualCol = make([]int, m)
	t.dualMult = make([]float64, m)
	slack, art := p.NumVars(), t.artLo
	for i, r := range p.rows {
		sign := 1.0
		rhs := r.rhs
		if rhs < 0 {
			sign, rhs = -1, -rhs
		}
		for _, term := range r.terms {
			t.set(i, term.Var, t.at(i, term.Var)+sign*term.Coeff)
		}
		t.set(i, n, rhs)
		switch normalizedRel(r) {
		case LE:
			t.set(i, slack, 1)
			t.basis[i] = slack
			// d_slack = -y_norm; y_orig = sign * y_norm.
			t.dualCol[i], t.dualMult[i] = slack, -sign
			slack++
		case GE:
			t.set(i, slack, -1)
			// d_surplus = +y_norm.
			t.dualCol[i], t.dualMult[i] = slack, sign
			slack++
			t.set(i, art, 1)
			t.basis[i] = art
			art++
		case EQ:
			t.set(i, art, 1)
			t.basis[i] = art
			// d_artificial = -y_norm (artificials cost 0 in phase 2).
			t.dualCol[i], t.dualMult[i] = art, -sign
			art++
		}
	}
	return t, nArt > 0
}

// installCost writes the cost row for the given per-column costs and
// prices out the current basis, leaving reduced costs in row m and the
// negated objective in the cost row's rhs cell.
func (t *tableau) installCost(cost []float64) {
	crow := t.row(t.m)
	for j := range crow {
		crow[j] = 0
	}
	copy(crow, cost)
	for i, b := range t.basis {
		if cb := cost[b]; cb != 0 {
			ri := t.row(i)
			for j := range crow {
				crow[j] -= cb * ri[j]
			}
		}
	}
}

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration cap. In phase 1 all columns may enter; in phase 2
// artificial columns are excluded. Dantzig pricing is used until
// degeneracy stalls progress, after which Bland's rule takes over to
// guarantee termination.
func (t *tableau) iterate(cost []float64, phase1 bool, check CheckFunc) (Status, int, error) {
	maxIters := 200*(t.m+t.n) + 20000
	stall := 0
	bland := false
	lastObj := math.Inf(1)
	hi := t.n
	if !phase1 {
		hi = t.artLo
	}
	for iter := 0; iter < maxIters; iter++ {
		if check != nil {
			if err := check(1); err != nil {
				return Aborted, iter, err
			}
		}
		crow := t.row(t.m)
		// Entering column.
		enter := -1
		if bland {
			for j := 0; j < hi; j++ {
				if crow[j] < -epsReduced {
					enter = j
					break
				}
			}
		} else {
			best := -epsReduced
			for j := 0; j < hi; j++ {
				if crow[j] < best {
					best, enter = crow[j], j
				}
			}
		}
		if enter < 0 {
			return Optimal, iter, nil
		}
		// Ratio test: leaving row.
		leave := -1
		var bestRatio float64
		for i := 0; i < t.m; i++ {
			aij := t.at(i, enter)
			if aij <= epsPivot {
				continue
			}
			ratio := t.rhs(i) / aij
			if leave < 0 || ratio < bestRatio-epsPivot ||
				(ratio < bestRatio+epsPivot && t.basis[i] < t.basis[leave]) {
				leave, bestRatio = i, ratio
			}
		}
		if leave < 0 {
			return Unbounded, iter, nil
		}
		t.pivot(leave, enter)
		// Degeneracy watch: if the objective stops improving for many
		// pivots, fall back to Bland's rule.
		obj := -t.at(t.m, t.n)
		if obj < lastObj-1e-12 {
			lastObj = obj
			stall = 0
		} else {
			stall++
			if stall > t.m+100 {
				bland = true
			}
		}
	}
	return IterLimit, maxIters, nil
}

// pivot performs Gauss-Jordan elimination on (r, c), making column c
// basic in row r.
func (t *tableau) pivot(r, c int) {
	pr := t.row(r)
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1 // exact
	for i := 0; i <= t.m; i++ {
		if i == r {
			continue
		}
		ri := t.row(i)
		f := ri[c]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[c] = 0 // exact
	}
	t.basis[r] = c
}

// purgeArtificials drives basic artificial variables out of the basis
// after phase 1. Rows whose artificial cannot be replaced (all
// structural coefficients zero) are redundant and are cleared so they
// can never bind again.
func (t *tableau) purgeArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artLo {
			continue
		}
		// The artificial is basic at (numerically) zero level. Pivot in
		// any non-artificial column with a usable coefficient.
		ri := t.row(i)
		piv := -1
		for j := 0; j < t.artLo; j++ {
			if math.Abs(ri[j]) > epsPivot {
				piv = j
				break
			}
		}
		if piv >= 0 {
			t.pivot(i, piv)
			continue
		}
		// Redundant row: zero it so it never constrains anything.
		for j := 0; j <= t.n; j++ {
			ri[j] = 0
		}
		ri[t.basis[i]] = 1 // keep the artificial formally basic at 0
	}
	// Artificial columns are intentionally left intact: phase 2 never
	// prices them (iterate's hi excludes them), and their tableau
	// values equal B^{-1} e_i, which is exactly what dual extraction
	// reads after optimality.
}
