package lp

import (
	"math"
	"slices"

	"calib/internal/obs"
)

// Numerical tolerances of the float64 engine.
const (
	epsPivot   = 1e-9 // smallest usable pivot magnitude
	epsReduced = 1e-9 // reduced-cost optimality tolerance
	epsPhase1  = 1e-7 // residual artificial mass considered infeasible
	// epsFeas is the primal feasibility tolerance: a basic value below
	// -epsFeas or more than epsFeas above its upper bound counts as
	// infeasible (triggering the dual-simplex repair on warm starts).
	epsFeas = 1e-7
)

// normalizedRel returns the relation of r after multiplying through by
// -1 when the rhs is negative (LE <-> GE swap, EQ unchanged).
func normalizedRel(r row) Rel {
	if r.rhs >= 0 {
		return r.rel
	}
	switch r.rel {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// Basis captures the final state of a solve for warm-starting a
// related one. It is valid for re-solves of the same Problem after rhs
// changes or appended rows (the original rows and all variables must
// be unchanged); anything else falls back to a cold solve.
type Basis struct {
	// Basic is the basic column per row, in the engine's standard-form
	// numbering: structural variables first, then one auxiliary
	// (slack/surplus) column per row, then artificials.
	Basic []int
	// AtUpper lists the nonbasic columns resting at their finite upper
	// bound.
	AtUpper []int
	// Vars and Rows fingerprint the producing problem; a mismatch
	// beyond "rows were appended" invalidates the basis.
	Vars, Rows int
	// lu carries the sparse LU factorization of the final basis (the
	// default representation). The next solve clones and probe-verifies
	// it against its own columns before adoption, so callers may treat
	// Basis as opaque state; a failed probe just refactorizes.
	lu *luFactor
	// binv is the dense inverse when the producing solve ran on the
	// dense reference representation; the same probe verification
	// gates its reuse.
	binv []float64
}

// Options configures SolveWith.
type Options struct {
	// Warm is a basis from a previous solve of a structurally
	// compatible problem (same variables; rows may have been appended;
	// rhs values may differ). The engine re-installs its factorization
	// and repairs primal infeasibility with the dual simplex, skipping
	// phase 1. Invalid or numerically unusable bases silently fall back
	// to a cold solve, so passing a stale basis is never incorrect.
	Warm *Basis
	// Metrics, when non-nil, receives the engine's counters: warm-start
	// hits/misses, cold-solve fallbacks labeled by reason, bound flips,
	// factorization reuse probes, LU telemetry (lp_lu_* series), and
	// dual-repair pivots (see the obs name catalogue). nil is the free
	// default.
	Metrics *obs.Registry
	// Check, when non-nil, is polled every checkEvery pivots with the
	// work done since the last poll; a non-nil return aborts the solve
	// with Status Aborted and that error. nil never checks.
	Check CheckFunc
	// denseBasis selects the dense explicit-inverse reference
	// representation instead of the sparse LU factorization. The
	// engine switches to it on its own when an LU solve ends in
	// IterLimit (the divergence guard); the in-package equivalence
	// tests select it directly.
	denseBasis bool
}

// checkEvery is the engine's check cadence. Batching 32 pivots per
// poll keeps the hook's cost invisible while still bounding cancel
// latency to a few milliseconds on the largest relaxations the
// pipeline builds.
const checkEvery = 32

// Solve runs the two-phase revised simplex: the constraint matrix is
// kept sparse by column and the basis is maintained as a sparse LU
// factorization (Markowitz-ordered factorize, column-eta product-form
// updates, refactorization on fill-in or instability). Memory and
// FTRAN/BTRAN cost are O(nnz), which matters for the TISE relaxations
// whose column count far exceeds the row count. A dense m x m inverse
// survives inside the package as the reference implementation and as
// the divergence-guard fallback.
//
// Finite variable upper bounds are handled natively: nonbasic
// variables rest at either bound and the ratio test performs the
// standard lower/upper bound-flip, so a bound costs no row at all.
//
// The test suite cross-checks the engine against the exact rational
// engine (SolveRational) on every problem.
func Solve(p *Problem) (*Solution, error) {
	return SolveWith(p, Options{})
}

// SolveWith is Solve with an optional warm-start basis, metrics
// registry and cancellation hook. The returned Solution carries the
// final basis for chaining.
func SolveWith(p *Problem, opts Options) (*Solution, error) {
	sol, err := solveRevised(p, opts)
	if err == nil && sol != nil && sol.Status == IterLimit && !opts.denseBasis {
		// Divergence guard: an LU solve that exhausted its iteration
		// budget (numerical pathology, cycling, a refactorization that
		// went singular) is re-run once on the dense reference
		// representation before the limit is reported.
		opts.Metrics.Counter(obs.MLPLUDenseFallback).Inc()
		opts.denseBasis = true
		return solveRevised(p, opts)
	}
	return sol, err
}

func solveRevised(p *Problem, opts Options) (*Solution, error) {
	met := opts.Metrics
	if opts.Warm != nil {
		sol, ok, reason, err := solveWarm(p, opts.Warm, met, opts.Check, opts.denseBasis)
		if err != nil {
			// An aborted warm attempt must not silently fall back to a
			// cold solve: the caller asked to stop.
			return sol, err
		}
		if ok {
			if reason == "" {
				met.Counter(obs.MLPWarmHits).Inc()
			} else {
				// The warm attempt produced a correct answer but only by
				// re-proving cold (infeasible_reproof): a miss.
				met.Counter(obs.MLPWarmMisses).Inc()
				met.CounterWith(obs.MLPColdFallback, "reason", reason).Inc()
			}
			return sol, nil
		}
		met.Counter(obs.MLPWarmMisses).Inc()
		met.CounterWith(obs.MLPColdFallback, "reason", reason).Inc()
	}
	return solveCold(p, met, opts.Check, opts.denseBasis)
}

// solveCold is the from-scratch two-phase solve.
func solveCold(p *Problem, met *obs.Registry, check CheckFunc, dense bool) (*Solution, error) {
	met.Counter(obs.MLPColdSolves).Inc()
	t := buildSparse(p, met, dense)
	defer t.release()
	t.check = check
	sol := &Solution{}
	if t.nArt > 0 {
		cost := f64s(&t.ws.cost1, t.n)
		zeroF(cost)
		for j := t.artLo; j < t.n; j++ {
			cost[j] = 1
		}
		st, iters := t.iterate(cost, true)
		sol.Iterations += iters
		if st == Aborted {
			sol.Status = Aborted
			return sol, t.checkErr
		}
		if st != Optimal {
			sol.Status = IterLimit
			return sol, nil
		}
		w := 0.0
		for i, b := range t.basis {
			if b >= t.artLo {
				w += t.xB[i]
			}
		}
		if w > epsPhase1*(1+math.Abs(w)) {
			sol.Status = Infeasible
			return sol, nil
		}
		t.purgeArtificials()
	}
	cost := t.phase2Cost(p)
	st, iters := t.iterate(cost, false)
	sol.Iterations += iters
	sol.Status = st
	if st == Aborted {
		return sol, t.checkErr
	}
	if st != Optimal {
		return sol, nil
	}
	t.extract(p, cost, sol)
	return sol, nil
}

// solveWarm attempts a warm-started solve: re-install the given
// basis's factorization, repair primal infeasibility with the dual
// simplex, then run primal phase 2. Returns ok=false when the basis
// cannot be used (the caller then solves cold) along with the fallback
// reason (one of the obs.Reason* values; empty on a clean warm hit).
// An Infeasible verdict from the dual simplex is re-proven by a cold
// phase 1 before being reported, so a stale warm basis can cost time
// but never correctness — that path returns ok=true with the reproof
// reason. A non-nil error means the check hook aborted; the caller
// must propagate it rather than fall back to a cold solve.
func solveWarm(p *Problem, warm *Basis, met *obs.Registry, check CheckFunc, dense bool) (*Solution, bool, string, error) {
	if warm.Vars != p.NumVars() || warm.Rows > p.NumRows() ||
		len(warm.Basic) != warm.Rows {
		return nil, false, obs.ReasonBasisShape, nil
	}
	t := buildSparse(p, met, dense)
	defer t.release()
	t.check = check
	if ok, reason := t.installBasis(warm, met); !ok {
		return nil, false, reason, nil
	}
	cost := t.phase2Cost(p)
	sol := &Solution{}
	if !t.primalFeasible() {
		st, iters := t.iterateDual(cost)
		sol.Iterations += iters
		met.Counter(obs.MLPDualRepair).Add(int64(iters))
		switch st {
		case Optimal: // primal feasibility restored
		case Aborted:
			sol.Status = Aborted
			return sol, false, "", t.checkErr
		case Infeasible:
			// Trustworthy only if the warm basis was dual feasible;
			// re-prove with a cold phase 1.
			cold, err := solveCold(p, met, check, dense)
			if err != nil {
				return cold, false, obs.ReasonInfeasReproof, err
			}
			cold.Iterations += sol.Iterations
			return cold, true, obs.ReasonInfeasReproof, nil
		default:
			// IterLimit: the repair stalled, cycled, or lost dual
			// feasibility — the divergence guards fired.
			return nil, false, obs.ReasonDivergence, nil
		}
	}
	st, iters := t.iterate(cost, false)
	sol.Iterations += iters
	if st == Aborted {
		sol.Status = Aborted
		return sol, false, "", t.checkErr
	}
	if st != Optimal {
		return nil, false, obs.ReasonPrimalStall, nil
	}
	// A basic artificial above tolerance means the basis absorbed an
	// appended EQ/GE row's residual; the result would be wrong.
	for i, b := range t.basis {
		if b >= t.artLo && t.xB[i] > epsPhase1 {
			return nil, false, obs.ReasonArtificial, nil
		}
	}
	sol.Status = Optimal
	t.extract(p, cost, sol)
	return sol, true, "", nil
}

// sparseCol is one column of the standard-form constraint matrix.
type sparseCol struct {
	idx []int32
	val []float64
}

// revTableau is the revised-simplex state. It lives inside a pooled
// workspace (see pool.go): every slice below points into the pooled
// arena and nothing may be referenced after release().
type revTableau struct {
	ws    *workspace
	m, n  int
	cols  []sparseCol
	b     []float64
	ub    []float64 // per-column upper bound (+Inf when absent)
	xB    []float64 // current basic solution values
	basis []int
	nvar  int
	artLo int
	nArt  int
	artOf []int // artificial column of each row (-1 when none)
	// inBasis / atUpper give each column's status; atUpper is
	// meaningful for nonbasic columns with a finite bound.
	inBasis []bool
	atUpper []bool
	// rowSign[i] is -1 when row i was normalized by flipping (rhs<0),
	// used to map dual values back to the caller's row orientation.
	rowSign []float64
	// rep is the factorized basis representation (sparse LU by
	// default, dense inverse as reference/fallback).
	rep basisRep
	// repFail is set when a mid-pivot refactorization came back
	// singular; the pivot loops then bail with IterLimit and the
	// divergence guard re-runs on the dense representation.
	repFail bool
	// Row-wise copy of the standard-form matrix (all n columns, each
	// row's entries in column order), for forming pivot rows ρA from
	// the rows where ρ is nonzero.
	rptr, rcol []int32
	rval       []float64
	// Pooled solve vectors. w (FTRAN image of the entering column) and
	// rho (a row of B⁻¹) are zero outside their nonzero lists wnz and
	// rhoNZ; y holds the duals; alpha accumulates a pivot row, its
	// nonzeros marked in amark and listed in anz; nzs is the index list
	// of the dense-right-hand-side solves.
	y, w, rho  []float64
	wnz, rhoNZ []int32
	nzs, anz   []int32
	alpha      []float64
	amark      []bool
	// met is consulted for the rare labeled series (refactor reasons);
	// hot-path instruments are bound once below.
	met         *obs.Registry
	cBoundFlips *obs.Counter
	cRefactor   *obs.Counter // fresh pricings after a refactorization
	cVerdict    *obs.Counter // fresh pricings before a terminal verdict
	cStale      *obs.Counter // fresh pricings that overturned optimality
	cLUFact     *obs.Counter
	gEtaMax     *obs.Gauge
	gFill       *obs.Gauge
	// check is polled every checkEvery pivots by both pivot loops; when
	// it fails they return Aborted and leave the error in checkErr.
	check    CheckFunc
	checkErr error
}

// checkpoint polls the check hook every checkEvery iterations,
// charging the batch of pivots since the last poll. It reports true
// when the solve must abort (checkErr then holds the cause).
func (t *revTableau) checkpoint(iter int) bool {
	if t.check == nil || iter%checkEvery != 0 {
		return false
	}
	if err := t.check(checkEvery); err != nil {
		t.checkErr = err
		return true
	}
	return false
}

// buildSparse converts p to sparse standard form on a pooled
// workspace. The numbering is stable under row appends so warm bases
// stay valid: structural columns first, then exactly one auxiliary
// column per row (slack for <=, surplus for >=, an empty unusable
// column for =), then artificials for >= and = rows. Structural
// columns are assembled into one CSR arena (no per-column
// allocations); duplicate (row, var) terms are summed and zero sums
// dropped, as the rational engine does.
func buildSparse(p *Problem, met *obs.Registry, dense bool) *revTableau {
	ws := wsPool.Get().(*workspace)
	m := p.NumRows()
	nArt := 0
	for _, r := range p.rows {
		if normalizedRel(r) != LE {
			nArt++
		}
	}
	nv := p.NumVars()
	n := nv + m + nArt
	t := &ws.t
	*t = revTableau{
		ws: ws,
		m:  m, n: n,
		nvar:  nv,
		artLo: nv + m,
		nArt:  nArt,
		met:   met,
	}
	t.b = f64s(&ws.b, m)
	t.ub = f64s(&ws.ub, n)
	t.xB = f64s(&ws.xB, m)
	t.rowSign = f64s(&ws.rowSign, m)
	t.basis = ints(&ws.basis, m)
	t.artOf = ints(&ws.artOf, m)
	t.inBasis = bools(&ws.inBasis, n)
	t.atUpper = bools(&ws.atUpper, n)
	t.y = f64s(&ws.y, m)
	t.w = f64s(&ws.w, m)
	t.rho = f64s(&ws.rho, m)
	zeroF(t.w)
	zeroF(t.rho)
	t.wnz = i32s(&ws.wnz, m)[:0]
	t.rhoNZ = i32s(&ws.rhoNZ, m)[:0]
	t.nzs = i32s(&ws.nzs, m)[:0]
	if cap(ws.cols) < n {
		ws.cols = make([]sparseCol, n)
	}
	ws.cols = ws.cols[:n]
	t.cols = ws.cols
	for j := 0; j < n; j++ {
		t.cols[j] = sparseCol{}
		t.inBasis[j] = false
		t.atUpper[j] = false
		t.ub[j] = math.Inf(1)
	}
	copy(t.ub, p.upper)
	// Structural columns, CSR-assembled: count terms per variable,
	// carve offsets, then fill row-by-row. A variable's entries arrive
	// in row order, so duplicate terms of one row are adjacent and
	// merge in place; entries that sum to zero are compacted away.
	cnt := i32s(&ws.cnt, nv)
	zeroI32(cnt)
	total := 0
	for i, r := range p.rows {
		sign, rhs := 1.0, r.rhs
		if rhs < 0 {
			sign, rhs = -1, -rhs
		}
		t.rowSign[i] = sign
		t.b[i] = rhs
		total += len(r.terms)
		for _, term := range r.terms {
			cnt[term.Var]++
		}
	}
	off := i32s(&ws.off, nv)
	run := int32(0)
	for v := 0; v < nv; v++ {
		off[v] = run
		run += cnt[v]
		cnt[v] = off[v] // becomes the fill cursor
	}
	idx := i32s(&ws.colIdx, total)
	val := f64s(&ws.colVal, total)
	for i, r := range p.rows {
		sign := t.rowSign[i]
		for _, term := range r.terms {
			v := term.Var
			pos := cnt[v]
			if pos > off[v] && idx[pos-1] == int32(i) {
				val[pos-1] += sign * term.Coeff
			} else {
				idx[pos] = int32(i)
				val[pos] = sign * term.Coeff
				cnt[v] = pos + 1
			}
		}
	}
	for v := 0; v < nv; v++ {
		lo, hi := off[v], cnt[v]
		wp := lo
		for k := lo; k < hi; k++ {
			if val[k] != 0 {
				idx[wp], val[wp] = idx[k], val[k]
				wp++
			}
		}
		t.cols[v] = sparseCol{idx: idx[lo:wp:wp], val: val[lo:wp:wp]}
	}
	// Aux and artificial singletons share one small arena.
	sIdx := i32s(&ws.auxIdx, m+nArt)
	sVal := f64s(&ws.auxVal, m+nArt)
	sp := 0
	art := t.artLo
	for i, r := range p.rows {
		aux := nv + i
		switch normalizedRel(r) {
		case LE:
			sIdx[sp], sVal[sp] = int32(i), 1
			t.cols[aux] = sparseCol{idx: sIdx[sp : sp+1 : sp+1], val: sVal[sp : sp+1 : sp+1]}
			sp++
			t.basis[i] = aux
			t.artOf[i] = -1
		case GE:
			sIdx[sp], sVal[sp] = int32(i), -1
			t.cols[aux] = sparseCol{idx: sIdx[sp : sp+1 : sp+1], val: sVal[sp : sp+1 : sp+1]}
			sp++
			sIdx[sp], sVal[sp] = int32(i), 1
			t.cols[art] = sparseCol{idx: sIdx[sp : sp+1 : sp+1], val: sVal[sp : sp+1 : sp+1]}
			sp++
			t.basis[i] = art
			t.artOf[i] = art
			art++
		case EQ:
			// aux stays an empty column: priced at reduced cost 0, it
			// can never enter; it exists only to keep numbering stable.
			sIdx[sp], sVal[sp] = int32(i), 1
			t.cols[art] = sparseCol{idx: sIdx[sp : sp+1 : sp+1], val: sVal[sp : sp+1 : sp+1]}
			sp++
			t.basis[i] = art
			t.artOf[i] = art
			art++
		}
	}
	for _, b := range t.basis {
		t.inBasis[b] = true
	}
	t.buildRows()
	if dense {
		t.rep = &ws.dense
	} else {
		t.rep = &ws.lu
	}
	// Initial basis is exactly the identity (slack/artificial unit
	// columns), so no factorization is needed and xB = b.
	t.rep.setIdentity(m)
	copy(t.xB, t.b)
	t.cBoundFlips = met.Counter(obs.MLPBoundFlips)
	t.cRefactor = met.CounterWith(obs.MLPPriceRefresh, "reason", obs.RefreshRefactor)
	t.cVerdict = met.CounterWith(obs.MLPPriceRefresh, "reason", obs.RefreshOptimality)
	t.cStale = met.Counter(obs.MLPPriceStale)
	if !dense {
		t.cLUFact = met.Counter(obs.MLPLUFactorize)
		t.gEtaMax = met.Gauge(obs.MLPLUEtaLenMax)
		t.gFill = met.Gauge(obs.MLPLUFillRatio)
	}
	return t
}

// buildRows fills the row-wise copy of the standard-form matrix from
// the columns. Filling in column order leaves each row's entries
// sorted by column, so a pivot row can stop at the first column past
// the priced range.
func (t *revTableau) buildRows() {
	ws := t.ws
	rptr := i32s(&ws.rptr, t.m+1)
	zeroI32(rptr)
	for j := range t.cols {
		for _, ri := range t.cols[j].idx {
			rptr[ri+1]++
		}
	}
	for i := 0; i < t.m; i++ {
		rptr[i+1] += rptr[i]
	}
	rcol := i32s(&ws.rcol, int(rptr[t.m]))
	rval := f64s(&ws.rval, int(rptr[t.m]))
	cur := i32s(&ws.cnt, t.m)
	copy(cur, rptr[:t.m])
	for j := range t.cols {
		c := &t.cols[j]
		for k, ri := range c.idx {
			p := cur[ri]
			rcol[p] = int32(j)
			rval[p] = c.val[k]
			cur[ri] = p + 1
		}
	}
	t.rptr, t.rcol, t.rval = rptr, rcol, rval
}

// phase2Cost returns the standard-form phase-2 cost vector.
func (t *revTableau) phase2Cost(p *Problem) []float64 {
	cost := f64s(&t.ws.cost2, t.n)
	k := copy(cost, p.obj)
	for j := k; j < t.n; j++ {
		cost[j] = 0
	}
	return cost
}

// installBasis maps a warm basis into t's numbering, re-installs its
// factorization, and computes xB. The failure reason distinguishes a
// structural mismatch (the basis does not map onto the problem) from a
// numerical one (it mapped, but the refactorization was singular) so
// lp_cold_fallback_total stays actionable.
func (t *revTableau) installBasis(warm *Basis, met *obs.Registry) (bool, string) {
	remap := func(e int) int {
		if e < t.nvar+warm.Rows {
			return e // structural or aux of a surviving row
		}
		// Artificial of the producing problem: same ordinal artificial
		// in the new numbering.
		return t.artLo + (e - t.nvar - warm.Rows)
	}
	for j := range t.inBasis {
		t.inBasis[j] = false
		t.atUpper[j] = false
	}
	for i, e := range warm.Basic {
		e = remap(e)
		if e < 0 || e >= t.n || t.inBasis[e] {
			return false, obs.ReasonBasisStructural
		}
		t.basis[i] = e
		t.inBasis[e] = true
	}
	// Appended rows enter the basis through their own aux column (or
	// artificial for = rows, which the post-solve check guards).
	for i := warm.Rows; i < t.m; i++ {
		e := t.nvar + i
		if len(t.cols[e].idx) == 0 {
			e = t.artOf[i]
		}
		if e < 0 || t.inBasis[e] {
			return false, obs.ReasonBasisStructural
		}
		t.basis[i] = e
		t.inBasis[e] = true
	}
	for _, e := range warm.AtUpper {
		e = remap(e)
		if e < 0 || e >= t.n || t.inBasis[e] || math.IsInf(t.ub[e], 1) {
			return false, obs.ReasonBasisStructural
		}
		t.atUpper[e] = true
	}
	if t.rep.adoptWarm(t, warm) {
		met.Counter(obs.MLPBinvHits).Inc()
	} else {
		met.Counter(obs.MLPBinvMisses).Inc()
		if !t.rep.refactorize(t) {
			return false, obs.ReasonBasisRefactor
		}
	}
	t.computeXB()
	return true, ""
}

// computeXB recomputes xB = B⁻¹ (b - sum of at-upper nonbasic columns
// at their bounds), shedding incremental drift.
func (t *revTableau) computeXB() {
	r := t.xB
	copy(r, t.b)
	for j := 0; j < t.n; j++ {
		if !t.atUpper[j] || t.inBasis[j] {
			continue
		}
		u := t.ub[j]
		c := &t.cols[j]
		for k, ri := range c.idx {
			r[int(ri)] -= u * c.val[k]
		}
	}
	t.nzs = t.rep.ftran(r, fullList(t.nzs, t.m))
	for i := 0; i < t.m; i++ {
		if t.xB[i] < 0 && t.xB[i] > -1e-11 {
			t.xB[i] = 0
		}
	}
}

// primalFeasible reports whether every basic value respects its
// bounds within tolerance.
func (t *revTableau) primalFeasible() bool {
	for i, b := range t.basis {
		if t.xB[i] < -epsFeas || t.xB[i] > t.ub[b]+epsFeas {
			return false
		}
	}
	return true
}

// duals computes y = cB^T B⁻¹ into y (every entry is overwritten);
// the BTRAN runs on the positions whose basic cost is nonzero.
func (t *revTableau) duals(cost, y []float64) {
	nz := t.nzs[:0]
	for k, b := range t.basis {
		y[k] = cost[b]
		if y[k] != 0 {
			nz = append(nz, int32(k))
		}
	}
	t.nzs = t.rep.btran(y, nz)
}

// ftranCol sets w = B⁻¹a_j and wnz to its nonzero positions in
// ascending order.
func (t *revTableau) ftranCol(j int) {
	w := t.w
	for _, i := range t.wnz {
		w[i] = 0
	}
	nz := t.wnz[:0]
	c := &t.cols[j]
	for k, ri := range c.idx {
		w[ri] += c.val[k]
		nz = append(nz, ri)
	}
	t.wnz = t.rep.ftran(w, nz)
}

// btranRow sets rho = e_rᵀB⁻¹ (row r of the inverse) and rhoNZ to its
// nonzero rows in ascending order.
func (t *revTableau) btranRow(r int) {
	for _, i := range t.rhoNZ {
		t.rho[i] = 0
	}
	t.rho[r] = 1
	t.rhoNZ = t.rep.btran(t.rho, append(t.rhoNZ[:0], int32(r)))
}

// price recomputes the reduced costs d_j = c_j - yᵀa_j of every column
// below hi from fresh duals; basic columns get d_j = 0.
func (t *revTableau) price(cost, d []float64, hi int) {
	y := t.y
	t.duals(cost, y)
	for j := 0; j < hi; j++ {
		if t.inBasis[j] {
			d[j] = 0
			continue
		}
		dj := cost[j]
		col := &t.cols[j]
		for k, ri := range col.idx {
			dj -= y[ri] * col.val[k]
		}
		d[j] = dj
	}
}

// resetPivotRow sizes the pivot-row scratch (alpha, amark, anz) for
// the n columns, all zero.
func (t *revTableau) resetPivotRow() {
	t.alpha = f64s(&t.ws.alpha, t.n)
	zeroF(t.alpha)
	t.amark = bools(&t.ws.amark, t.n)
	clear(t.amark)
	t.anz = i32s(&t.ws.anz, t.n)[:0]
}

// pivotRow forms the pivot row α_r = ρA, with ρ = e_rᵀB⁻¹ from
// btranRow, over the nonbasic columns below hi, reading only the rows
// where ρ is nonzero: alpha[j] holds α_rj for the columns listed in
// anz. alpha and amark stay zero off the list, and clearPivotRow
// restores that once the row is consumed.
func (t *revTableau) pivotRow(hi int) {
	alpha, mark, nz := t.alpha, t.amark, t.anz[:0]
	for _, i := range t.rhoNZ {
		ri := t.rho[i]
		for e := t.rptr[i]; e < t.rptr[i+1]; e++ {
			j := t.rcol[e]
			if int(j) >= hi {
				break
			}
			if t.inBasis[j] {
				continue
			}
			if !mark[j] {
				mark[j] = true
				nz = append(nz, j)
			}
			alpha[j] += ri * t.rval[e]
		}
	}
	t.anz = nz
}

// clearPivotRow zeroes the pivot row's listed entries.
func (t *revTableau) clearPivotRow() {
	for _, j := range t.anz {
		t.alpha[j] = 0
		t.amark[j] = false
	}
}

// updatePrices folds the basis change at position r into the reduced
// costs without re-pricing: with ρ = e_rᵀB⁻¹ of the new basis and its
// pivot row α_r (see pivotRow), every nonbasic column below hi moves
// by d_j -= dq·α_rj, where dq is the entering column's reduced cost.
// The leaving column (α_r = 1/w_r) lands at -dq/w_r; the entering one,
// now basic, is set to 0.
func (t *revTableau) updatePrices(d []float64, r, enter int, dq float64, hi int) {
	t.btranRow(r)
	t.pivotRow(hi)
	for _, j := range t.anz {
		d[j] -= dq * t.alpha[j]
	}
	t.clearPivotRow()
	d[enter] = 0
}

// chooseEntering prices the columns below hi from d: at-lower columns
// want d < 0, at-upper columns d > 0; basic columns hold d = 0 (price
// and updatePrices keep them there) and never qualify. Dantzig's rule
// takes the largest violation; Bland's rule (the anti-cycling
// fallback) the first. dir is +1 when the entering variable increases
// from its lower bound, -1 when it decreases from its upper bound.
func (t *revTableau) chooseEntering(d []float64, hi int, bland bool) (enter int, dir float64) {
	enter = -1
	best := epsReduced
	atUpper := t.atUpper[:hi]
	for j, dj := range d[:hi] {
		score := -dj
		if atUpper[j] {
			score = dj
		}
		if score > best {
			best, enter = score, j
			if bland {
				break
			}
		}
	}
	if enter >= 0 && t.atUpper[enter] {
		return enter, -1
	}
	return enter, 1
}

// testHookPrices, set only by tests, runs after every pivot of the
// primal loop with the costs, the reduced costs and the priced range.
var testHookPrices func(t *revTableau, cost, d []float64, hi int)

// iterate runs primal bounded-variable revised-simplex pivots for the
// given costs. Nonbasic variables rest at 0 or at their finite upper
// bound; the ratio test allows three outcomes per step: a basic
// variable leaves at lower, a basic variable leaves at upper, or the
// entering variable flips to its opposite bound without a pivot.
//
// Reduced costs are priced in full once, then updated from the pivot
// row after each basis change (see updatePrices); a bound flip leaves
// them unchanged. They are priced afresh after every refactorization
// and before a terminal verdict, so a claim of optimality or
// unboundedness never rests on incrementally drifted values. Every
// per-pivot vector operation runs on the FTRAN image's nonzero list.
func (t *revTableau) iterate(cost []float64, phase1 bool) (Status, int) {
	maxIters := 200*(t.m+t.n) + 20000
	hi := t.n
	if !phase1 {
		hi = t.artLo
	}
	d := f64s(&t.ws.d, t.n)
	t.resetPivotRow()
	t.price(cost, d, hi)
	fresh := true
	reprice := func(reason *obs.Counter) {
		reason.Inc()
		t.price(cost, d, hi)
		fresh = true
	}
	w := t.w
	// Degeneracy watch: gain accumulates the objective decrease
	// |d_q|·θ of each step since the last real progress.
	stall := 0
	bland := false
	gain := 0.0
	for iter := 0; iter < maxIters; iter++ {
		if t.repFail {
			return IterLimit, iter
		}
		if t.checkpoint(iter) {
			return Aborted, iter
		}
		enter, dir := t.chooseEntering(d, hi, bland)
		if enter < 0 && !fresh {
			reprice(t.cVerdict)
			if enter, dir = t.chooseEntering(d, hi, bland); enter >= 0 {
				t.cStale.Inc()
			}
		}
		if enter < 0 {
			return Optimal, iter
		}
		dq := d[enter]
		t.ftranCol(enter)
		// Bounded ratio test: theta is how far the entering variable
		// moves (increasing from 0 when dir=+1, decreasing from its
		// upper bound when dir=-1).
		leave := -1
		leaveAtUpper := false
		bestRatio := math.Inf(1)
		for _, i32 := range t.wnz {
			i := int(i32)
			dw := dir * w[i]
			var ratio float64
			var hitsUpper bool
			switch {
			case dw > epsPivot: // basic value decreases toward 0
				ratio = t.xB[i] / dw
			case dw < -epsPivot && !math.IsInf(t.ub[t.basis[i]], 1):
				ratio = (t.ub[t.basis[i]] - t.xB[i]) / (-dw)
				hitsUpper = true
			default:
				continue
			}
			if ratio < 0 {
				ratio = 0
			}
			if leave < 0 || ratio < bestRatio-epsPivot ||
				(ratio < bestRatio+epsPivot && t.basis[i] < t.basis[leave]) {
				leave, bestRatio, leaveAtUpper = i, ratio, hitsUpper
			}
		}
		var theta float64
		if ubE := t.ub[enter]; !math.IsInf(ubE, 1) && (leave < 0 || ubE < bestRatio-epsPivot) {
			// Bound flip: the entering variable traverses its whole
			// range without any basic variable blocking.
			for _, i := range t.wnz {
				t.xB[i] -= dir * ubE * w[i]
				if t.xB[i] < 0 && t.xB[i] > -1e-11 {
					t.xB[i] = 0
				}
			}
			t.atUpper[enter] = dir > 0
			t.cBoundFlips.Inc()
			theta = ubE
		} else if leave < 0 {
			if fresh {
				return Unbounded, iter
			}
			reprice(t.cVerdict)
			continue
		} else {
			newVal := bestRatio
			if dir < 0 {
				newVal = t.ub[enter] - bestRatio
			}
			switch {
			case !t.pivot(leave, enter, dir*bestRatio, newVal, leaveAtUpper):
				t.updatePrices(d, leave, enter, dq, hi)
				fresh = false
			case !t.repFail: // refactorized
				reprice(t.cRefactor)
			}
			if testHookPrices != nil {
				testHookPrices(t, cost, d, hi)
			}
			theta = bestRatio
		}
		if iter%64 == 63 {
			t.computeXB()
		}
		if gain += math.Abs(dq) * theta; gain > 1e-12 {
			gain = 0
			stall = 0
		} else if stall++; stall > t.m+100 {
			bland = true
		}
	}
	return IterLimit, maxIters
}

// iterateDual runs dual-simplex pivots until primal feasibility is
// restored (Optimal), primal infeasibility is established
// (Infeasible), or the cap is hit. It assumes the starting basis is
// dual feasible for cost — the warm-start contract (the basis came
// from an optimal solve with the same objective).
func (t *revTableau) iterateDual(cost []float64) (Status, int) {
	// Repair is a shortcut, not a guarantee: the caller falls back to a
	// cold solve on IterLimit. Legitimate repairs measured across the
	// cut loops stay under one pivot per row, so the budget is tight.
	maxIters := 4*t.m + 400
	y := t.y
	d := f64s(&t.ws.d, t.n)
	t.resetPivotRow()
	alpha := t.alpha
	// Reduced costs are maintained incrementally across pivots (the
	// per-iteration dual recomputation dominated warm repairs
	// otherwise) and refreshed periodically against drift.
	refreshD := func() {
		t.duals(cost, y)
		for j := 0; j < t.artLo; j++ {
			if t.inBasis[j] {
				continue
			}
			dj := cost[j]
			col := &t.cols[j]
			for k, ri := range col.idx {
				dj -= y[ri] * col.val[k]
			}
			d[j] = dj
		}
	}
	refreshD()
	// Degenerate pivots (theta = 0, common on rhs-0 cut rows) make no
	// dual progress; long runs of them mean cycling. Repair is only a
	// shortcut — on stall we hand back to the caller, which re-solves
	// cold, so the guard can be aggressive.
	stall := 0
	stallCap := t.m/2 + 200
	for iter := 0; iter < maxIters; iter++ {
		if t.repFail {
			return IterLimit, iter
		}
		if t.checkpoint(iter) {
			return Aborted, iter
		}
		// Leaving row: most violated basic value.
		r, viol := -1, epsFeas
		leaveAtUpper := false
		for i, b := range t.basis {
			if v := -t.xB[i]; v > viol {
				r, viol, leaveAtUpper = i, v, false
			}
			if u := t.ub[b]; !math.IsInf(u, 1) {
				if v := t.xB[i] - u; v > viol {
					r, viol, leaveAtUpper = i, v, true
				}
			}
		}
		if r < 0 {
			return Optimal, iter
		}
		// Entering column: dual ratio test on row r of B⁻¹N (whose
		// zero entries never qualify), leaving the row in alpha for
		// the dual update. s orients the row so the leaving variable
		// moves back toward its violated bound.
		t.clearPivotRow()
		t.btranRow(r)
		t.pivotRow(t.artLo)
		slices.Sort(t.anz) // column order, for the tie-break
		s := 1.0
		if leaveAtUpper {
			s = -1
		}
		enter := -1
		bestRatio := math.Inf(1)
		for _, j32 := range t.anz {
			j := int(j32)
			a := s * alpha[j]
			var ratio float64
			if !t.atUpper[j] {
				if a >= -epsPivot {
					continue
				}
				dj := d[j]
				if dj < 0 {
					dj = 0
				}
				ratio = dj / -a
			} else {
				if a <= epsPivot {
					continue
				}
				dj := -d[j]
				if dj < 0 {
					dj = 0
				}
				ratio = dj / a
			}
			if ratio < bestRatio-epsReduced ||
				(ratio < bestRatio+epsReduced && (enter < 0 || j < enter)) {
				enter, bestRatio = j, ratio
			}
		}
		if enter < 0 {
			// The violated row cannot be repaired: primal infeasible.
			return Infeasible, iter
		}
		alphaE := alpha[enter]
		theta := d[enter] / alphaE
		// The dual step length has sign -s (the leaving variable's
		// reduced cost becomes -theta and must match its bound). A
		// wrong-signed theta means the basis is no longer dual feasible
		// -- numerical drift, not a repairable state -- so hand back to
		// the caller before the iteration diverges.
		if s*theta > 1e-5 {
			return IterLimit, iter
		}
		if theta > 1e-12 || theta < -1e-12 {
			stall = 0
		} else if stall++; stall > stallCap {
			return IterLimit, iter
		}
		leaving := t.basis[r]
		t.ftranCol(enter)
		target := 0.0
		if leaveAtUpper {
			target = t.ub[t.basis[r]]
		}
		delta := (t.xB[r] - target) / alphaE
		cur := 0.0
		if t.atUpper[enter] {
			cur = t.ub[enter]
		}
		t.pivot(r, enter, delta, cur+delta, leaveAtUpper)
		// Dual update: d_j -= theta * alpha_rj for the nonbasic set.
		// The alphas were just computed for the pivot row; the leaving
		// variable (alpha = 1 in its own row) lands at -theta.
		for _, j := range t.anz {
			if !t.inBasis[j] {
				d[j] -= theta * alpha[j]
			}
		}
		if leaving < t.artLo {
			d[leaving] = -theta
		}
		d[enter] = 0
		if iter%64 == 63 {
			t.computeXB()
			refreshD()
		}
	}
	return IterLimit, maxIters
}

// pivot makes the entering column basic in row r with value newVal;
// every other basic value moves by -delta*w (w = t.w, the entering
// column's FTRAN image; delta is the signed change of the entering
// variable), the leaving variable becomes nonbasic at its lower or
// upper bound, and the basis representation folds in the pivot — by
// product-form inverse update or column eta. When the representation
// asks for a refactorization instead (eta limit, fill-in, instability)
// it happens here, against the just-updated basis, and pivot reports
// true; a singular refactorization also flags repFail for the
// divergence guard.
func (t *revTableau) pivot(r, enter int, delta, newVal float64, leaveAtUpper bool) (refactored bool) {
	leaving := t.basis[r]
	for _, i := range t.wnz {
		t.xB[i] -= delta * t.w[i]
		if t.xB[i] < 0 && t.xB[i] > -1e-11 {
			t.xB[i] = 0
		}
	}
	t.xB[r] = newVal
	t.basis[r] = enter
	t.inBasis[enter] = true
	t.atUpper[enter] = false
	t.inBasis[leaving] = false
	t.atUpper[leaving] = leaveAtUpper && !math.IsInf(t.ub[leaving], 1)
	ok, reason := t.rep.update(t, r, t.w, t.wnz)
	if ok {
		return false
	}
	t.met.CounterWith(obs.MLPLURefactor, "reason", reason).Inc()
	if !t.rep.refactorize(t) {
		// Keep the representation in a defined state and let the
		// pivot loops bail; the divergence guard re-solves dense.
		t.rep.setIdentity(t.m)
		t.repFail = true
	}
	return true
}

// purgeArtificials drives basic artificials out after phase 1 by
// degenerate pivots on structural columns; redundant rows keep their
// artificial basic at zero (phase 2 never prices artificials).
func (t *revTableau) purgeArtificials() {
	for r := 0; r < t.m && !t.repFail; r++ {
		if t.basis[r] < t.artLo {
			continue
		}
		for j := 0; j < t.artLo; j++ {
			if t.inBasis[j] {
				continue
			}
			t.ftranCol(j)
			if math.Abs(t.w[r]) > epsPivot {
				// (Near-)degenerate step: the artificial sits at ~0, so
				// the entering variable keeps its current value.
				newVal := 0.0
				if t.atUpper[j] {
					newVal = t.ub[j]
				}
				t.pivot(r, j, 0, newVal, false)
				t.xB[r] = newVal
				break
			}
		}
	}
	t.computeXB()
}

// extract populates sol from the optimal tableau state.
func (t *revTableau) extract(p *Problem, cost []float64, sol *Solution) {
	nv := p.NumVars()
	sol.X = make([]float64, nv)
	for j := 0; j < nv; j++ {
		if t.atUpper[j] && !t.inBasis[j] {
			sol.X[j] = t.ub[j]
		}
	}
	for i, b := range t.basis {
		if b < nv {
			sol.X[b] = t.xB[i]
		}
	}
	for v, x := range sol.X {
		if x < 0 {
			sol.X[v] = 0
		}
		sol.Objective += p.obj[v] * sol.X[v]
	}
	// Duals: y = cB^T B⁻¹ in the normalized system, mapped back
	// through the per-row flip signs.
	sol.Dual = make([]float64, t.m)
	t.duals(cost, sol.Dual)
	for i := range sol.Dual {
		sol.Dual[i] *= t.rowSign[i]
	}
	basis := &Basis{
		Basic: append([]int(nil), t.basis...),
		Vars:  nv,
		Rows:  t.m,
	}
	// Ownership of the factorization moves to the Basis; the tableau
	// is discarded after extraction, so no copy is needed.
	t.rep.exportBasis(basis)
	for j := 0; j < t.n; j++ {
		if t.atUpper[j] && !t.inBasis[j] {
			basis.AtUpper = append(basis.AtUpper, j)
		}
	}
	sol.Basis = basis
}
