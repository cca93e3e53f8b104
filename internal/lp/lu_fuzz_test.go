package lp

import (
	"math"
	"testing"
)

// decodeBasis derives a random m×m sparse basis matrix (as standard-
// form columns) from fuzz bytes. Entries are small integers so exact
// cancellation and genuine singularity both occur; empty columns get a
// unit diagonal to keep structural singularity from dominating the
// corpus (the factorizers' rejection of it is tested separately).
func decodeBasis(data []byte) []sparseCol {
	if len(data) == 0 {
		return nil
	}
	m := 1 + int(data[0])%7
	data = data[1:]
	next := func() int {
		if len(data) == 0 {
			return 1
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	cols := make([]sparseCol, m)
	for j := 0; j < m; j++ {
		var idx []int32
		var val []float64
		for i := 0; i < m; i++ {
			b := next()
			if b%3 == 0 {
				continue
			}
			v := float64(b%17 - 8)
			if v == 0 {
				continue
			}
			idx = append(idx, int32(i))
			val = append(val, v)
		}
		if len(idx) == 0 {
			idx = append(idx, int32(j))
			val = append(val, 1)
		}
		cols[j] = sparseCol{idx: idx, val: val}
	}
	return cols
}

// luFuzzTableau wraps the columns in a minimal tableau whose basis is
// exactly those columns (basis[k] = k). Metrics instruments stay nil —
// all obs handles are nil-safe.
func luFuzzTableau(cols []sparseCol) *revTableau {
	ws := wsPool.Get().(*workspace)
	m := len(cols)
	t := &ws.t
	*t = revTableau{ws: ws, m: m, n: m}
	t.cols = cols
	t.basis = ints(&ws.basis, m)
	for i := range t.basis {
		t.basis[i] = i
	}
	t.w = f64s(&ws.w, m)
	return t
}

// condProxy bounds ||B||·||B⁻¹|| from the dense inverse: the
// comparison tolerances below scale with it, and hopeless matrices are
// skipped rather than compared.
func condProxy(tab *revTableau, dense *denseBasis) float64 {
	binvMax, aMax := 0.0, 1.0
	for _, v := range dense.binv {
		if a := math.Abs(v); a > binvMax {
			binvMax = a
		}
	}
	for _, c := range tab.cols[:tab.m] {
		for _, v := range c.val {
			if a := math.Abs(v); a > aMax {
				aMax = a
			}
		}
	}
	return binvMax * aMax * float64(tab.m)
}

// listSolve runs one list-based solve (ftran or btran) of rep on the
// sparse right-hand side rhs and checks the list contract: the
// returned positions ascend strictly and cover every nonzero of the
// result. It returns the result as a fresh dense vector.
func listSolve(t *testing.T, name string, rep basisRep, ftran bool, rhs []float64) []float64 {
	t.Helper()
	m := len(rhs)
	v := make([]float64, m)
	var nz []int32
	for i, x := range rhs {
		if x != 0 {
			v[i] = x
			nz = append(nz, int32(i))
		}
	}
	nz = append(make([]int32, 0, m), nz...)
	if ftran {
		nz = rep.ftran(v, nz)
	} else {
		nz = rep.btran(v, nz)
	}
	listed := make([]bool, m)
	for k, i := range nz {
		if k > 0 && nz[k-1] >= i {
			t.Fatalf("%s: list %v not strictly ascending", name, nz)
		}
		listed[i] = true
	}
	for i, x := range v {
		if x != 0 && !listed[i] {
			t.Fatalf("%s: nonzero %v at %d missing from list %v", name, x, i, nz)
		}
	}
	return v
}

// compareReps cross-checks the list-based solves of the LU
// factorization against the dense inverse: FTRAN of each basis column
// (which must be the corresponding unit vector), BTRAN of each unit
// row, and FTRAN/BTRAN of the given sparse probes plus one dense probe.
// Results must agree to within tol and every nonzero must be listed.
func compareReps(t *testing.T, tab *revTableau, lu *luBasis, dense *denseBasis, tol float64, probes [][]float64) {
	t.Helper()
	m := tab.m
	near := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("%s[%d]: lu %v != dense %v (tol %g)", name, i, got[i], want[i], tol)
			}
		}
	}
	for j := 0; j < m; j++ {
		col := make([]float64, m)
		for k, ri := range tab.cols[j].idx {
			col[ri] += tab.cols[j].val[k]
		}
		unit := make([]float64, m)
		unit[j] = 1
		near("ftran(basis col)", listSolve(t, "lu ftran", lu, true, col), unit)
		near("btran(unit)", listSolve(t, "lu btran", lu, false, unit),
			listSolve(t, "dense btran", dense, false, unit))
	}
	full := make([]float64, m)
	for i := range full {
		full[i] = float64((i%5)-2) + 0.25
	}
	for _, p := range append(probes, full) {
		near("ftran(probe)", listSolve(t, "lu ftran", lu, true, p),
			listSolve(t, "dense ftran", dense, true, p))
		near("btran(probe)", listSolve(t, "lu btran", lu, false, p),
			listSolve(t, "dense btran", dense, false, p))
	}
}

// decodeProbes derives a few sparse right-hand sides of length m from
// fuzz bytes: each byte either skips a position or sets a small value.
func decodeProbes(data []byte, m int) [][]float64 {
	var out [][]float64
	for len(data) > 0 && len(out) < 3 {
		p := make([]float64, m)
		for i := 0; i < m && len(data) > 0; i++ {
			if b := data[0]; b%4 == 0 {
				p[i] = float64(b%13) - 6
			}
			data = data[1:]
		}
		out = append(out, p)
	}
	return out
}

// FuzzLUFactorize round-trips random sparse bases through the sparse
// LU representation — factorize, list-based FTRAN and BTRAN on sparse
// and dense right-hand sides, and a sequence of Forrest–Tomlin eta
// updates — against the dense explicit-inverse reference. The two
// representations must accept the same bases (away from the singular
// floor, where their rejection thresholds legitimately differ),
// produce the same solves to a conditioning-scaled tolerance, and
// list every nonzero of each result.
func FuzzLUFactorize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5})
	f.Add([]byte{3, 1, 2, 4, 0, 7, 5, 0, 1, 2, 9, 4, 13})
	f.Add([]byte{6, 2, 0, 0, 5, 1, 0, 0, 7, 4, 0, 2, 0, 0, 8, 1, 1, 0, 0, 2,
		5, 0, 0, 4, 0, 1, 2, 0, 0, 7, 0, 5, 1, 0, 0, 2, 8})
	f.Add(func() []byte { // dense-ish 5×5
		b := []byte{5}
		for i := 0; i < 30; i++ {
			b = append(b, byte(7*i+1))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		cols := decodeBasis(data)
		if cols == nil {
			return
		}
		tab := luFuzzTableau(cols)
		defer tab.release()
		lu := &tab.ws.lu
		dense := &tab.ws.dense
		okD := dense.refactorize(tab)
		okLU := lu.refactorize(tab)
		if !okD {
			// The dense reference declared the basis singular. The LU path
			// may still have found a threshold-passing pivot sequence; if
			// so its factor must at least survive the probe verification.
			if okLU && !tab.verifyFactor(lu) {
				t.Fatal("LU factor fails probe on a dense-singular basis")
			}
			return
		}
		cond := condProxy(tab, dense)
		if !okLU {
			if cond < 1e6 {
				t.Fatalf("LU refused a well-conditioned basis (cond ~%g)", cond)
			}
			return // near-singular: thresholds may legitimately disagree
		}
		if cond > 1e8 {
			return // too ill-conditioned for a meaningful float comparison
		}
		tol := 1e-9*cond + 1e-8
		probes := decodeProbes(data, tab.m)
		compareReps(t, tab, lu, dense, tol, probes)

		// Forrest–Tomlin updates: pivot in a = col_r + col_s, whose FTRAN
		// image is exactly e_r + e_s — a stable pivot at row r. After
		// each eta the factor must agree with a dense refactorization of
		// the updated basis; a sequence of up to three etas is replayed.
		m := tab.m
		if m < 2 {
			return
		}
		cols = append([]sparseCol(nil), cols...)
		tab.cols = cols
		for step := 0; step < 3 && step < len(data)-1; step++ {
			r := int(data[len(data)-1-step]) % m
			s := (r + 1 + int(data[step])%(m-1)) % m
			merged := make([]float64, m)
			for k, ri := range cols[r].idx {
				merged[ri] += cols[r].val[k]
			}
			for k, ri := range cols[s].idx {
				merged[ri] += cols[s].val[k]
			}
			var a sparseCol
			for i, v := range merged {
				if v != 0 {
					a.idx = append(a.idx, int32(i))
					a.val = append(a.val, v)
				}
			}
			if len(a.idx) == 0 {
				return
			}
			w := make([]float64, m)
			nz := make([]int32, 0, m)
			for k, ri := range a.idx {
				w[ri] = a.val[k]
				nz = append(nz, ri)
			}
			nz = lu.ftran(w, nz)
			if math.Abs(w[r]-1) > tol || math.Abs(w[s]-1) > tol {
				t.Fatalf("FTRAN of col_%d+col_%d = %v, want e_%d+e_%d (tol %g)", r, s, w, r, s, tol)
			}
			if ok, _ := lu.update(tab, r, w, nz); !ok {
				return // a refactorization trigger fired; the solver would refactorize
			}
			cols[r] = a
			if !dense.refactorize(tab) {
				return
			}
			cond = condProxy(tab, dense)
			if cond > 1e8 {
				return
			}
			tol = 1e-9*cond + 1e-8
			compareReps(t, tab, lu, dense, tol, probes)
		}
	})
}
