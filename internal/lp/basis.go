package lp

import "math"

// basisRep abstracts the factorized representation of the simplex
// basis B (one column of the standard-form matrix per row). Two
// implementations exist: luBasis, the default — a sparse LU
// factorization with Markowitz ordering and Forrest–Tomlin column-eta
// updates, O(nnz) per solve — and denseBasis, the original explicit
// m×m inverse with product-form updates, kept as the reference
// implementation and the divergence-guard fallback.
//
// Vector index conventions: FTRAN input and BTRAN output are in row
// space (constraint-row indices); FTRAN output and BTRAN input are in
// basis-position space (position k holds the coefficient of the k-th
// basic column). The two spaces share the index range 0..m-1 and the
// tableau identifies position k with row k throughout.
type basisRep interface {
	// setIdentity installs the exact identity basis (the cold-start
	// state: slack/artificial unit columns) without a factorization.
	setIdentity(m int)
	// refactorize rebuilds the representation from the tableau's
	// current basis columns. False means numerically singular.
	refactorize(t *revTableau) bool
	// adoptWarm installs the factorized state carried by a warm Basis,
	// verifying it against the current columns. False means the caller
	// must refactorize.
	adoptWarm(t *revTableau, warm *Basis) bool
	// ftran computes B⁻¹a in place over a nonzero index list: w holds
	// a in row space with its nonzeros listed in nz (w is zero
	// elsewhere) and on return holds B⁻¹a in position space; the
	// returned list, in nz's backing array, covers every nonzero in
	// ascending order. A dense right-hand side is the full list.
	ftran(w []float64, nz []int32) []int32
	// btran computes cᵀB⁻¹ in place over a nonzero index list: c in
	// position space on entry, row space on return, under the same list
	// contract as ftran.
	btran(c []float64, nz []int32) []int32
	// update folds the pivot "column with FTRAN image w (nonzeros
	// listed by nz) enters at position r" into the representation.
	// ok=false requests a refactorization instead (reason is one of
	// eta_limit, fill_in, instability); the caller has already updated
	// t.basis, so refactorize sees the post-pivot basis.
	update(t *revTableau, r int, w []float64, nz []int32) (ok bool, reason string)
	// exportBasis moves the representation into bs for warm-start
	// carry; the representation must not be used afterwards.
	exportBasis(bs *Basis)
}

// denseBasis is the explicit-inverse representation: binv holds B⁻¹
// row-major and pivots apply the product-form update row by row. Work
// per pivot is O(m · nnz(pivot row)) and per FTRAN/BTRAN O(m²) — the
// reference implementation the sparse path is validated against.
type denseBasis struct {
	m      int
	binv   []float64 // m×m row-major; detached on exportBasis
	gj     []float64 // Gauss-Jordan arena, m×2m, pooled
	rowIdx []int32   // pivot-row nonzero positions, pooled
	// Right-hand side nonzeros gathered out of a solve's vector.
	rhsIdx []int32
	rhsVal []float64
}

func (d *denseBasis) init(m int) {
	d.m = m
	if cap(d.binv) < m*m {
		d.binv = make([]float64, m*m)
	}
	d.binv = d.binv[:m*m]
}

func (d *denseBasis) setIdentity(m int) {
	d.init(m)
	zeroF(d.binv)
	for i := 0; i < m; i++ {
		d.binv[i*m+i] = 1
	}
}

// refactorize rebuilds binv = B⁻¹ by Gauss-Jordan elimination with
// partial pivoting on [B | I]. Returns false when the basis matrix is
// (numerically) singular.
func (d *denseBasis) refactorize(t *revTableau) bool {
	m := t.m
	d.init(m)
	if m == 0 {
		return true
	}
	a := f64s(&d.gj, m*2*m)
	zeroF(a)
	for col, b := range t.basis {
		c := &t.cols[b]
		for k, ri := range c.idx {
			a[int(ri)*2*m+col] = c.val[k]
		}
	}
	for i := 0; i < m; i++ {
		a[i*2*m+m+i] = 1
	}
	for col := 0; col < m; col++ {
		piv, pv := -1, 1e-10
		for i := col; i < m; i++ {
			if v := math.Abs(a[i*2*m+col]); v > pv {
				piv, pv = i, v
			}
		}
		if piv < 0 {
			return false
		}
		if piv != col {
			// A row interchange is an elementary operation on [B | I];
			// the basis order itself is untouched.
			pr, cr := a[piv*2*m:(piv+1)*2*m], a[col*2*m:(col+1)*2*m]
			for k := range pr {
				pr[k], cr[k] = cr[k], pr[k]
			}
		}
		cr := a[col*2*m : (col+1)*2*m]
		inv := 1 / cr[col]
		for k := range cr {
			cr[k] *= inv
		}
		cr[col] = 1
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			ri := a[i*2*m : (i+1)*2*m]
			f := ri[col]
			if f == 0 {
				continue
			}
			for k := range ri {
				ri[k] -= f * cr[k]
			}
			ri[col] = 0
		}
	}
	for i := 0; i < m; i++ {
		copy(d.binv[i*m:(i+1)*m], a[i*2*m+m:(i+1)*2*m])
	}
	return true
}

// adoptWarm copies the inverse carried by a warm Basis and verifies it
// against the current columns (Binv*B ≈ I); a mismatch (changed
// coefficients, flipped row signs, a hand-built basis) returns false
// and the caller refactorizes from scratch. Row-extended problems
// refactorize too, as on the LU path.
func (d *denseBasis) adoptWarm(t *revTableau, warm *Basis) bool {
	m := t.m
	d.init(m)
	if m == 0 || warm.Rows != m || len(warm.binv) != m*m {
		return false
	}
	copy(d.binv, warm.binv)
	return t.verifyFactor(d)
}

// gather moves the listed nonzeros of v into the rhs scratch, leaving
// v all zero.
func (d *denseBasis) gather(v []float64, nz []int32) ([]int32, []float64) {
	idx, val := d.rhsIdx[:0], d.rhsVal[:0]
	for _, i := range nz {
		if x := v[i]; x != 0 {
			idx = append(idx, i)
			val = append(val, x)
			v[i] = 0
		}
	}
	d.rhsIdx, d.rhsVal = idx, val
	return idx, val
}

// fullList returns 0..m-1 in nz's backing array: the dense
// representation reports every position as nonzero.
func fullList(nz []int32, m int) []int32 {
	nz = nz[:0]
	for i := 0; i < m; i++ {
		nz = append(nz, int32(i))
	}
	return nz
}

func (d *denseBasis) ftran(w []float64, nz []int32) []int32 {
	m := d.m
	idx, val := d.gather(w, nz)
	for k, c := range idx {
		v := val[k]
		for i := 0; i < m; i++ {
			w[i] += d.binv[i*m+int(c)] * v
		}
	}
	return fullList(nz, m)
}

func (d *denseBasis) btran(c []float64, nz []int32) []int32 {
	m := d.m
	idx, val := d.gather(c, nz)
	for k, p := range idx {
		v := val[k]
		row := d.binv[int(p)*m : (int(p)+1)*m]
		for i := 0; i < m; i++ {
			c[i] += v * row[i]
		}
	}
	return fullList(nz, m)
}

// update applies the product-form update: binv ← E⁻¹ binv where E is
// the identity with column r replaced by w. The pivot row of binv is
// sparse until fill-in accumulates; updating only its nonzero
// positions makes each pivot O(touched rows * nnz(row r)) instead of
// O(m²). The dense representation never requests a refactorization.
func (d *denseBasis) update(_ *revTableau, r int, w []float64, _ []int32) (bool, string) {
	m := d.m
	inv := 1 / w[r]
	rrow := d.binv[r*m : (r+1)*m]
	if cap(d.rowIdx) < m {
		d.rowIdx = make([]int32, 0, m)
	}
	idx := d.rowIdx[:0]
	for k, v := range rrow {
		if v != 0 {
			rrow[k] = v * inv
			idx = append(idx, int32(k))
		}
	}
	d.rowIdx = idx
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i] // rrow is already scaled by 1/w[r]
		if f == 0 {
			continue
		}
		irow := d.binv[i*m : (i+1)*m]
		for _, k := range idx {
			irow[k] -= f * rrow[k]
		}
	}
	return true, ""
}

// exportBasis moves ownership of the inverse into bs; the pooled
// workspace must not hand the same array to a later solve, so the
// local reference is dropped.
func (d *denseBasis) exportBasis(bs *Basis) {
	bs.binv = d.binv
	d.binv = nil
}

// verifyFactor checks B⁻¹B ≈ I through the representation with
// deterministic pseudo-random probe vectors: for each probe u it forms
// z = B*u (sparse, O(nnz)) and tests FTRAN(z) ≈ u. Any coefficient
// change, row-sign flip, or basis/factor mismatch perturbs z and fails
// the residual with overwhelming probability, at a cost far below both
// a refactorization and an explicit column-by-column check.
func (t *revTableau) verifyFactor(rep basisRep) bool {
	m := t.m
	u := f64s(&t.ws.probeU, m)
	z := f64s(&t.ws.probeZ, m)
	for probe := 0; probe < 2; probe++ {
		// splitmix64-style hash, scaled into [0.5, 1.5): well away from
		// zero so no basis column is masked.
		seed := uint64(probe)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for i := range u {
			x := uint64(i+1)*0x9e3779b97f4a7c15 + seed
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			u[i] = 0.5 + float64(x>>11)/(1<<53)
			z[i] = 0
		}
		zmax := 0.0
		for j, b := range t.basis {
			c := &t.cols[b]
			uj := u[j]
			for k, ri := range c.idx {
				z[ri] += uj * c.val[k]
			}
		}
		for _, v := range z {
			if a := math.Abs(v); a > zmax {
				zmax = a
			}
		}
		t.nzs = rep.ftran(z, fullList(t.nzs, m))
		tol := 1e-6 * (1 + zmax)
		for i := 0; i < m; i++ {
			if math.Abs(z[i]-u[i]) > tol {
				return false
			}
		}
	}
	return true
}
