package lp

import (
	"math"
	"slices"
)

// Tuning constants of the sparse LU representation.
const (
	// luMaxEtas caps the Forrest–Tomlin eta file. Etas on calibration
	// bases are sparse (the fill trigger below bounds their total
	// weight), so replaying a long file costs far less than the
	// refactorization it defers; 96 balances replay cost against
	// refactorization cadence on the bounded warm-resolve workload,
	// where refactorizing every 64 pivots dominated the solve.
	luMaxEtas = 96
	// luEtaStabTol rejects an eta whose pivot element is too small to
	// divide by safely; the representation refactorizes instead. The
	// ratio test already guarantees |w_r| >= epsPivot, so this only
	// fires on genuinely ill-conditioned pivots.
	luEtaStabTol = 1e-8
	// luPivotFloor matches the dense Gauss-Jordan singularity floor.
	luPivotFloor = 1e-10
	// luMarkowitzTau is the threshold-pivoting stability bound: a bump
	// pivot must be at least tau times the largest entry of its column.
	luMarkowitzTau = 0.01
	// luFillFactor bounds eta-file fill-in relative to the factor: when
	// the eta arena exceeds luFillFactor*(nnz(LU)+m) the update path
	// asks for a refactorization. Sized so the deep eta file allowed by
	// luMaxEtas only triggers early on genuinely fill-heavy pivots.
	luFillFactor = 16
)

// luFactor is a sparse LU factorization of the basis, P·B·Q = L·U in
// pivot-order form: elimination step k pivots on matrix entry
// (prow[k], pcol[k]). L is stored as one multiplier column per step
// (Gauss vectors over constraint rows), U as one off-diagonal row per
// step whose column indices are elimination steps, plus the diagonal.
// Column-eta (Forrest–Tomlin style product-form) updates accumulate in
// a shared arena until a refactorization trigger fires. The struct is
// self-contained and immutable once carried inside a Basis, so
// concurrent warm solves may clone it freely.
type luFactor struct {
	m          int
	prow, pcol []int32
	udiag      []float64
	lptr       []int32 // len m+1; L column k is lrow/lval[lptr[k]:lptr[k+1]]
	lrow       []int32
	lval       []float64
	uptr       []int32 // len m+1; U row k is upos/uval[uptr[k]:uptr[k+1]]
	upos       []int32 // elimination-step indices (remapped after factorize)
	uval       []float64
	// Eta file: eta q pivots at basis position etaR[q] with diagonal
	// etaDiag[q]; its off-pivot entries live in etaIdx/etaVal
	// [etaPtr[q]:etaPtr[q+1]].
	etaR    []int32
	etaDiag []float64
	etaPtr  []int32 // len(etaR)+1
	etaIdx  []int32
	etaVal  []float64
	// nnz accounting for the fill-in trigger and telemetry.
	nnzBasis, nnzFactor int
	// Solve index (see index): the inverse permutations and the steps
	// whose L column / U row carries off-diagonal entries.
	rowStep, posStep []int32
	lsteps, usteps   []int32
}

func (f *luFactor) reset(m int) {
	f.m = m
	f.prow = i32s(&f.prow, m)
	f.pcol = i32s(&f.pcol, m)
	f.udiag = f64s(&f.udiag, m)
	f.lptr = append(f.lptr[:0], 0)
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.uptr = append(f.uptr[:0], 0)
	f.upos = f.upos[:0]
	f.uval = f.uval[:0]
	f.etaR = f.etaR[:0]
	f.etaDiag = f.etaDiag[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.nnzBasis = 0
	f.nnzFactor = 0
}

func (f *luFactor) cloneFrom(src *luFactor) {
	f.m = src.m
	f.prow = append(f.prow[:0], src.prow...)
	f.pcol = append(f.pcol[:0], src.pcol...)
	f.udiag = append(f.udiag[:0], src.udiag...)
	f.lptr = append(f.lptr[:0], src.lptr...)
	f.lrow = append(f.lrow[:0], src.lrow...)
	f.lval = append(f.lval[:0], src.lval...)
	f.uptr = append(f.uptr[:0], src.uptr...)
	f.upos = append(f.upos[:0], src.upos...)
	f.uval = append(f.uval[:0], src.uval...)
	f.etaR = append(f.etaR[:0], src.etaR...)
	f.etaDiag = append(f.etaDiag[:0], src.etaDiag...)
	f.etaPtr = append(f.etaPtr[:0], src.etaPtr...)
	f.etaIdx = append(f.etaIdx[:0], src.etaIdx...)
	f.etaVal = append(f.etaVal[:0], src.etaVal...)
	f.nnzBasis = src.nnzBasis
	f.nnzFactor = src.nnzFactor
	f.index()
}

// index rebuilds the solve index after the factor changed (U
// positions must already be elimination steps): rowStep/posStep invert
// prow/pcol, and lsteps/usteps list in ascending order the steps with
// a nonempty L column / U row. Every other step is a pure diagonal
// scaling in that pass, which the list-based solves touch only when
// its entry is nonzero.
func (f *luFactor) index() {
	m := f.m
	f.rowStep = i32s(&f.rowStep, m)
	f.posStep = i32s(&f.posStep, m)
	f.lsteps, f.usteps = f.lsteps[:0], f.usteps[:0]
	for k := 0; k < m; k++ {
		f.rowStep[f.prow[k]] = int32(k)
		f.posStep[f.pcol[k]] = int32(k)
		if f.lptr[k+1] > f.lptr[k] {
			f.lsteps = append(f.lsteps, int32(k))
		}
		if f.uptr[k+1] > f.uptr[k] {
			f.usteps = append(f.usteps, int32(k))
		}
	}
}

// luBasis is the sparse-LU basisRep. The factor itself is owned (it
// escapes into the Basis on export); every elimination scratch array
// lives in the struct and is pooled with the workspace.
type luBasis struct {
	m int
	f *luFactor
	// Solve scratch: zpos (step space) and mark are all-zero between
	// solves; snz collects the nonzero steps of one solve.
	zpos []float64
	mark []bool
	snz  []int32

	// Factorization scratch (singleton peel + dense Markowitz bump).
	rn, cn             []int32
	rowPtr, rowCol     []int32
	rowVal             []float64
	cur                []int32
	colQ, rowQ         []int32
	rowAlive, colAlive []bool
	bumpR, bumpC       []int32
	bumpD              []float64
	bRowAlive          []bool
	bColAlive          []bool
	rnz, cnz           []int32
	cmax               []float64
}

func (b *luBasis) factor() *luFactor {
	if b.f == nil {
		b.f = &luFactor{}
	}
	return b.f
}

func (b *luBasis) setIdentity(m int) {
	b.m = m
	f := b.factor()
	f.reset(m)
	for k := 0; k < m; k++ {
		f.prow[k] = int32(k)
		f.pcol[k] = int32(k)
		f.udiag[k] = 1
		f.lptr = append(f.lptr, 0)
		f.uptr = append(f.uptr, 0)
	}
	f.nnzBasis = m
	f.nnzFactor = m
	f.index()
	b.scratch(m)
}

// scratch sizes the solve scratch for an m-row basis and restores its
// all-zero invariant.
func (b *luBasis) scratch(m int) {
	b.zpos = f64s(&b.zpos, m)
	zeroF(b.zpos)
	b.mark = bools(&b.mark, m)
	clear(b.mark)
	if cap(b.snz) < m {
		b.snz = make([]int32, 0, m)
	}
}

// refactorize builds P·B·Q = L·U from the tableau's current basis
// columns in two phases. First a zero-fill singleton peel: a column
// with one active entry pivots with no elimination at all, and a row
// with one active entry pivots producing only L multipliers (its
// elimination zeroes entries that leave the matrix, so no remaining
// value ever changes — active entries always hold their original
// values). Calibration bases are dominated by slack/cut singletons, so
// the peel usually consumes nearly everything. The irreducible "bump"
// that remains is gathered into a dense k×k kernel and eliminated with
// Markowitz ordering (minimize (r-1)(c-1) fill score) under threshold
// pivoting. Returns false when the basis is (numerically) singular.
func (b *luBasis) refactorize(t *revTableau) bool {
	m := t.m
	b.m = m
	f := b.factor()
	f.reset(m)
	b.scratch(m)
	if m == 0 {
		t.cLUFact.Inc()
		return true
	}
	cn := i32s(&b.cn, m)
	rn := i32s(&b.rn, m)
	zeroI32(rn)
	nnz := 0
	for k := 0; k < m; k++ {
		c := &t.cols[t.basis[k]]
		if len(c.idx) == 0 {
			return false // structurally singular (an EQ row's empty aux)
		}
		cn[k] = int32(len(c.idx))
		nnz += len(c.idx)
		for _, ri := range c.idx {
			rn[ri]++
		}
	}
	f.nnzBasis = nnz
	// Row-wise CSR of the basis matrix: row i -> (step column, value).
	rowPtr := i32s(&b.rowPtr, m+1)
	rowPtr[0] = 0
	for i := 0; i < m; i++ {
		if rn[i] == 0 {
			return false
		}
		rowPtr[i+1] = rowPtr[i] + rn[i]
	}
	rowCol := i32s(&b.rowCol, nnz)
	rowVal := f64s(&b.rowVal, nnz)
	cur := i32s(&b.cur, m)
	copy(cur, rowPtr[:m])
	for k := 0; k < m; k++ {
		c := &t.cols[t.basis[k]]
		for e, ri := range c.idx {
			p := cur[ri]
			rowCol[p] = int32(k)
			rowVal[p] = c.val[e]
			cur[ri] = p + 1
		}
	}
	rowAlive := bools(&b.rowAlive, m)
	colAlive := bools(&b.colAlive, m)
	for i := 0; i < m; i++ {
		rowAlive[i], colAlive[i] = true, true
	}
	colQ := b.colQ[:0]
	rowQ := b.rowQ[:0]
	for k := 0; k < m; k++ {
		if cn[k] == 1 {
			colQ = append(colQ, int32(k))
		}
		if rn[k] == 1 {
			rowQ = append(rowQ, int32(k))
		}
	}
	npiv := 0
	ok := true
	for ok {
		switch {
		case len(colQ) > 0:
			k := int(colQ[len(colQ)-1])
			colQ = colQ[:len(colQ)-1]
			if !colAlive[k] || cn[k] != 1 {
				continue // stale queue entry
			}
			c := &t.cols[t.basis[k]]
			pi, pv := -1, 0.0
			for e, ri := range c.idx {
				if rowAlive[ri] {
					pi, pv = int(ri), c.val[e]
					break
				}
			}
			if pi < 0 || math.Abs(pv) <= luPivotFloor {
				ok = false
				break
			}
			f.prow[npiv] = int32(pi)
			f.pcol[npiv] = int32(k)
			f.udiag[npiv] = pv
			// The pivot row's remaining active entries become the U row;
			// they leave their columns, which may become singletons.
			for e := rowPtr[pi]; e < rowPtr[pi+1]; e++ {
				j := rowCol[e]
				if int(j) == k || !colAlive[j] {
					continue
				}
				f.upos = append(f.upos, j)
				f.uval = append(f.uval, rowVal[e])
				if cn[j]--; cn[j] == 1 {
					colQ = append(colQ, j)
				}
			}
			f.lptr = append(f.lptr, int32(len(f.lrow)))
			f.uptr = append(f.uptr, int32(len(f.upos)))
			rowAlive[pi] = false
			colAlive[k] = false
			npiv++
		case len(rowQ) > 0:
			i := int(rowQ[len(rowQ)-1])
			rowQ = rowQ[:len(rowQ)-1]
			if !rowAlive[i] || rn[i] != 1 {
				continue
			}
			pj, pv := -1, 0.0
			for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
				if colAlive[rowCol[e]] {
					pj, pv = int(rowCol[e]), rowVal[e]
					break
				}
			}
			if pj < 0 || math.Abs(pv) <= luPivotFloor {
				ok = false
				break
			}
			f.prow[npiv] = int32(i)
			f.pcol[npiv] = int32(pj)
			f.udiag[npiv] = pv
			// The pivot column's remaining active entries are eliminated
			// by multipliers; the pivot row has no other entries, so the
			// update touches nothing else.
			c := &t.cols[t.basis[pj]]
			for e, ri := range c.idx {
				if int(ri) == i || !rowAlive[ri] {
					continue
				}
				f.lrow = append(f.lrow, ri)
				f.lval = append(f.lval, c.val[e]/pv)
				if rn[ri]--; rn[ri] == 1 {
					rowQ = append(rowQ, ri)
				}
			}
			f.lptr = append(f.lptr, int32(len(f.lrow)))
			f.uptr = append(f.uptr, int32(len(f.upos)))
			rowAlive[i] = false
			colAlive[pj] = false
			npiv++
		default:
			ok = false
		}
	}
	b.colQ, b.rowQ = colQ[:0], rowQ[:0]
	if npiv < m {
		if !b.eliminateBump(t, f, npiv, rowAlive, colAlive) {
			return false
		}
	}
	// U entries were recorded by basis position (a column's elimination
	// step is unknown while it is still active); remap to steps.
	f.posStep = i32s(&f.posStep, m)
	for k := 0; k < m; k++ {
		f.posStep[f.pcol[k]] = int32(k)
	}
	for e := range f.upos {
		f.upos[e] = f.posStep[f.upos[e]]
	}
	f.index()
	f.nnzFactor = m + len(f.lval) + len(f.uval)
	t.cLUFact.Inc()
	t.gFill.Set(float64(f.nnzFactor) / float64(f.nnzBasis))
	return true
}

// eliminateBump gathers the irreducible core left by the singleton
// peel into a dense k×k kernel and runs Markowitz-ordered threshold
// elimination, harvesting sparse L and U entries as it goes.
//
// Row and column nonzero counts are maintained incrementally through
// the elimination (each update knows exactly which entries appear and
// cancel), and each step searches only a handful of lowest-count
// candidate columns rather than the whole kernel. That keeps a step
// near O(k + fill) instead of the O(k²) full rescan — the difference
// between a refactorization mid-solve costing like one pivot and
// costing like a fresh dense inversion.
func (b *luBasis) eliminateBump(t *revTableau, f *luFactor, npiv int, rowAlive, colAlive []bool) bool {
	m := t.m
	k := m - npiv
	bumpR := b.bumpR[:0]
	bumpC := b.bumpC[:0]
	for i := 0; i < m; i++ {
		if rowAlive[i] {
			bumpR = append(bumpR, int32(i))
		}
		if colAlive[i] {
			bumpC = append(bumpC, int32(i))
		}
	}
	b.bumpR, b.bumpC = bumpR, bumpC
	if len(bumpR) != k || len(bumpC) != k {
		return false
	}
	D := f64s(&b.bumpD, k*k)
	zeroF(D)
	rmap := i32s(&b.cur, m)
	for di, i := range bumpR {
		rmap[i] = int32(di)
	}
	for dj, j := range bumpC {
		c := &t.cols[t.basis[j]]
		for e, ri := range c.idx {
			if rowAlive[ri] {
				D[int(rmap[ri])*k+dj] = c.val[e]
			}
		}
	}
	rAlive := bools(&b.bRowAlive, k)
	cAlive := bools(&b.bColAlive, k)
	for i := 0; i < k; i++ {
		rAlive[i], cAlive[i] = true, true
	}
	rnz := i32s(&b.rnz, k)
	cnz := i32s(&b.cnz, k)
	zeroI32(rnz)
	zeroI32(cnz)
	for i := 0; i < k; i++ {
		row := D[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			if row[j] != 0 {
				rnz[i]++
				cnz[j]++
			}
		}
	}
	for step := 0; step < k; step++ {
		bi, bj := b.pickBumpPivot(D, k, rAlive, cAlive, rnz, cnz)
		if bi < 0 {
			return false
		}
		piv := D[bi*k+bj]
		f.prow[npiv] = bumpR[bi]
		f.pcol[npiv] = bumpC[bj]
		f.udiag[npiv] = piv
		prow := D[bi*k : (bi+1)*k]
		for j := 0; j < k; j++ {
			if j != bj && cAlive[j] && prow[j] != 0 {
				f.upos = append(f.upos, bumpC[j])
				f.uval = append(f.uval, prow[j])
				cnz[j]-- // pivot row leaves the kernel
			}
		}
		for i := 0; i < k; i++ {
			if i == bi || !rAlive[i] {
				continue
			}
			row := D[i*k : (i+1)*k]
			if row[bj] == 0 {
				continue
			}
			mult := row[bj] / piv
			f.lrow = append(f.lrow, bumpR[i])
			f.lval = append(f.lval, mult)
			for j := 0; j < k; j++ {
				if j == bj || !cAlive[j] || prow[j] == 0 {
					continue
				}
				old := row[j]
				nw := old - mult*prow[j]
				row[j] = nw
				if old == 0 {
					if nw != 0 {
						rnz[i]++
						cnz[j]++
					}
				} else if nw == 0 {
					rnz[i]--
					cnz[j]--
				}
			}
			row[bj] = 0
			rnz[i]-- // the eliminated bj entry
		}
		f.lptr = append(f.lptr, int32(len(f.lrow)))
		f.uptr = append(f.uptr, int32(len(f.upos)))
		rAlive[bi] = false
		cAlive[bj] = false
		npiv++
	}
	return true
}

// bumpCandidates is how many lowest-count columns pickBumpPivot scans
// for a threshold-stable Markowitz pivot before falling back to the
// full kernel.
const bumpCandidates = 4

// pickBumpPivot selects the next bump pivot: among (up to) the
// bumpCandidates alive columns with the fewest nonzeros, take the
// entry minimizing the Markowitz fill score (rnz-1)(cnz-1) subject to
// threshold pivoting against the column's own max. When every
// candidate column is numerically degenerate the full-kernel scan of
// the original implementation decides (rare; it keeps the numerical
// behavior a strict superset of the candidate search).
func (b *luBasis) pickBumpPivot(D []float64, k int, rAlive, cAlive []bool, rnz, cnz []int32) (int, int) {
	var cand [bumpCandidates]int
	nc := 0
	for j := 0; j < k; j++ {
		if !cAlive[j] {
			continue
		}
		// Insertion into the small sorted-by-cnz candidate list.
		p := nc
		if nc < bumpCandidates {
			nc++
		} else if cnz[j] >= cnz[cand[nc-1]] {
			continue
		} else {
			p = nc - 1
		}
		for p > 0 && cnz[j] < cnz[cand[p-1]] {
			cand[p] = cand[p-1]
			p--
		}
		cand[p] = j
	}
	bi, bj := -1, -1
	best := int32(1) << 30
	bestAbs := 0.0
	for c := 0; c < nc; c++ {
		j := cand[c]
		cmax := 0.0
		for i := 0; i < k; i++ {
			if rAlive[i] {
				if a := math.Abs(D[i*k+j]); a > cmax {
					cmax = a
				}
			}
		}
		for i := 0; i < k; i++ {
			if !rAlive[i] || D[i*k+j] == 0 {
				continue
			}
			a := math.Abs(D[i*k+j])
			if a <= luPivotFloor || a < luMarkowitzTau*cmax {
				continue
			}
			score := (rnz[i] - 1) * (cnz[j] - 1)
			if score < best || (score == best && a > bestAbs) {
				best, bestAbs, bi, bj = score, a, i, j
			}
		}
	}
	if bi >= 0 {
		return bi, bj
	}
	// Fallback: full Markowitz scan with per-column maxima.
	cmax := f64s(&b.cmax, k)
	zeroF(cmax)
	for i := 0; i < k; i++ {
		if !rAlive[i] {
			continue
		}
		row := D[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			if cAlive[j] {
				if a := math.Abs(row[j]); a > cmax[j] {
					cmax[j] = a
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		if !rAlive[i] {
			continue
		}
		row := D[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			if !cAlive[j] || row[j] == 0 {
				continue
			}
			a := math.Abs(row[j])
			if a <= luPivotFloor || a < luMarkowitzTau*cmax[j] {
				continue
			}
			score := (rnz[i] - 1) * (cnz[j] - 1)
			if score < best || (score == best && a > bestAbs) {
				best, bestAbs, bi, bj = score, a, i, j
			}
		}
	}
	return bi, bj
}

// adoptWarm clones the factor carried by a warm Basis and verifies it
// against the current columns with the probe check. Cloning (O(nnz))
// keeps the shared Basis immutable, so concurrent warm solves from the
// same basis stay race-free. Row-extended problems refactorize instead
// (the factor shape no longer matches).
func (b *luBasis) adoptWarm(t *revTableau, warm *Basis) bool {
	if warm.lu == nil || warm.Rows != t.m || warm.lu.m != t.m {
		return false
	}
	b.m = t.m
	b.factor().cloneFrom(warm.lu)
	b.scratch(t.m)
	return t.verifyFactor(b)
}

// ftran solves B·x = a in place over a nonzero index list. On entry w
// holds a in row space and nz lists its nonzero rows (w is zero
// elsewhere; duplicates are tolerated); on exit w holds x in basis-
// position space and the returned list, in nz's backing array, holds
// x's nonzero positions in ascending order. A dense right-hand side is
// the full list. The passes and their arithmetic are those of the
// textbook solve — L forward, U back-substitution in elimination-step
// space, scatter to positions, eta file oldest to newest — but the
// triangular passes visit only the steps of lsteps/usteps (see index)
// plus the diagonal-only steps the solve reaches, and the scatter and
// the eta pass only the listed nonzeros.
func (b *luBasis) ftran(w []float64, nz []int32) []int32 {
	f, mark, z := b.f, b.mark, b.zpos
	nz = markList(nz, mark)
	for _, k := range f.lsteps {
		v := w[f.prow[k]]
		if v == 0 {
			continue
		}
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			i := f.lrow[e]
			w[i] -= f.lval[e] * v
			if !mark[i] {
				mark[i] = true
				nz = append(nz, i)
			}
		}
	}
	// Into step space. A step without a U row is final once scaled by
	// its diagonal; the steps with one are back-substituted in
	// descending order. snz collects (and mark flags) the nonzero
	// steps.
	snz := b.snz[:0]
	for _, i := range nz {
		mark[i] = false
		if v := w[i]; v != 0 {
			w[i] = 0
			k := f.rowStep[i]
			if f.uptr[k] == f.uptr[k+1] {
				v /= f.udiag[k]
			}
			z[k] = v
			snz = append(snz, k)
		}
	}
	for _, k := range snz {
		mark[k] = true
	}
	for q := len(f.usteps) - 1; q >= 0; q-- {
		k := f.usteps[q]
		v := z[k]
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			v -= f.uval[e] * z[f.upos[e]]
		}
		z[k] = v / f.udiag[k]
		if v != 0 && !mark[k] {
			mark[k] = true
			snz = append(snz, k)
		}
	}
	for _, k := range snz {
		mark[k] = false
	}
	nz = nz[:0]
	for _, k := range snz {
		p := f.pcol[k]
		w[p] = z[k]
		z[k] = 0
		mark[p] = true
		nz = append(nz, p)
	}
	b.snz = snz
	// Eta q: E = I + (w-e_r)e_rᵀ, so E⁻¹x sets x_r /= w_r and
	// subtracts the eta column scaled by the new x_r.
	for q := range f.etaR {
		r := f.etaR[q]
		vr := w[r]
		if vr == 0 {
			continue
		}
		vr /= f.etaDiag[q]
		for e := f.etaPtr[q]; e < f.etaPtr[q+1]; e++ {
			i := f.etaIdx[e]
			w[i] -= f.etaVal[e] * vr
			if !mark[i] {
				mark[i] = true
				nz = append(nz, i)
			}
		}
		w[r] = vr
	}
	return finishList(w, nz, mark)
}

// btran solves yᵀ·B = cᵀ in place over a nonzero index list: c in
// basis-position space on entry (nonzeros listed in nz), y in row
// space on exit with its sorted nonzero rows returned. It is the exact
// transpose of ftran — eta file newest to oldest, Uᵀ forward in step
// space over usteps, permute steps to rows, then Lᵀ in reverse step
// order over lsteps.
func (b *luBasis) btran(c []float64, nz []int32) []int32 {
	f, mark, z := b.f, b.mark, b.zpos
	nz = markList(nz, mark)
	for q := len(f.etaR) - 1; q >= 0; q-- {
		r := f.etaR[q]
		d := c[r]
		for e := f.etaPtr[q]; e < f.etaPtr[q+1]; e++ {
			d -= f.etaVal[e] * c[f.etaIdx[e]]
		}
		c[r] = d / f.etaDiag[q]
		if d != 0 && !mark[r] {
			mark[r] = true
			nz = append(nz, r)
		}
	}
	// Into step space, then Uᵀ forward: in ascending step order each
	// nonzero step with a U row is finalized and pushed into the later
	// steps of that row. snz collects (and mark flags) the steps
	// reached; the rest are divided last.
	snz := b.snz[:0]
	for _, p := range nz {
		mark[p] = false
		if v := c[p]; v != 0 {
			c[p] = 0
			k := f.posStep[p]
			z[k] = v
			snz = append(snz, k)
		}
	}
	for _, k := range snz {
		mark[k] = true
	}
	for _, k := range f.usteps {
		v := z[k]
		if v == 0 {
			continue
		}
		v /= f.udiag[k]
		z[k] = v
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			j := f.upos[e]
			z[j] -= f.uval[e] * v
			if !mark[j] {
				mark[j] = true
				snz = append(snz, j)
			}
		}
	}
	for _, k := range snz {
		mark[k] = false
	}
	nz = nz[:0]
	for _, k := range snz {
		v := z[k]
		if f.uptr[k] == f.uptr[k+1] {
			v /= f.udiag[k]
		}
		z[k] = 0
		i := f.prow[k]
		c[i] = v
		mark[i] = true
		nz = append(nz, i)
	}
	b.snz = snz
	for q := len(f.lsteps) - 1; q >= 0; q-- {
		k := f.lsteps[q]
		i := f.prow[k]
		acc := c[i]
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			acc -= f.lval[e] * c[f.lrow[e]]
		}
		c[i] = acc
		if acc != 0 && !mark[i] {
			mark[i] = true
			nz = append(nz, i)
		}
	}
	return finishList(c, nz, mark)
}

// markList marks the entries of nz and drops duplicates in place.
func markList(nz []int32, mark []bool) []int32 {
	out := nz[:0]
	for _, i := range nz {
		if !mark[i] {
			mark[i] = true
			out = append(out, i)
		}
	}
	return out
}

// finishList clears the marks of the listed entries and returns the
// entries where v is nonzero in ascending order (the order the dense
// loops visited them in, so tie-breaks downstream are unchanged). A
// long list is rebuilt by one scan of the marks instead of a sort.
func finishList(v []float64, nz []int32, mark []bool) []int32 {
	if 16*len(nz) >= len(mark) {
		nz = nz[:0]
		for i, on := range mark {
			if on {
				mark[i] = false
				if v[i] != 0 {
					nz = append(nz, int32(i))
				}
			}
		}
		return nz
	}
	out := nz[:0]
	for _, i := range nz {
		mark[i] = false
		if v[i] != 0 {
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return out
}

// update appends a column eta for the pivot (entering column's FTRAN
// image w at position r, its nonzeros listed in ascending order by
// nz) unless a refactorization trigger fires: unstable pivot, eta-file length cap, or eta fill-in past the
// luFillFactor bound. The caller refactorizes on false — the basis
// bookkeeping has already happened, so the fresh factor absorbs the
// pivot exactly.
func (b *luBasis) update(t *revTableau, r int, w []float64, nz []int32) (bool, string) {
	f := b.f
	wr := w[r]
	if math.Abs(wr) < luEtaStabTol {
		return false, "instability"
	}
	if len(f.etaR) >= luMaxEtas {
		return false, "eta_limit"
	}
	cnt := 0
	for _, i := range nz {
		if w[i] != 0 && int(i) != r {
			cnt++
		}
	}
	if len(f.etaIdx)+cnt > luFillFactor*(f.nnzFactor+f.m) {
		return false, "fill_in"
	}
	f.etaR = append(f.etaR, int32(r))
	f.etaDiag = append(f.etaDiag, wr)
	for _, i := range nz {
		if v := w[i]; v != 0 && int(i) != r {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, v)
		}
	}
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
	t.gEtaMax.SetMax(float64(len(f.etaR)))
	return true, ""
}

// exportBasis moves the factor into bs for warm-start carry; the next
// solve on this workspace starts from a fresh factor object.
func (b *luBasis) exportBasis(bs *Basis) {
	bs.lu = b.f
	b.f = nil
}
