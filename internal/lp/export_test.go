package lp

import (
	"math"
	"testing"
)

// CheckPricesAfterPivots makes every primal pivot, for the rest of the
// test, compare each nonbasic column's incrementally updated reduced
// cost with a fresh pricing of the same basis; a difference above
// 1e-9·(1+|d_j|) fails tb. The returned counter holds the number of
// pivots checked.
func CheckPricesAfterPivots(tb testing.TB) *int {
	checked := new(int)
	testHookPrices = func(t *revTableau, cost, d []float64, hi int) {
		fresh := make([]float64, len(d))
		t.price(cost, fresh, hi)
		for j := 0; j < hi; j++ {
			if t.inBasis[j] {
				continue
			}
			if diff := math.Abs(d[j] - fresh[j]); diff > 1e-9*(1+math.Abs(d[j])) {
				tb.Fatalf("pivot %d: column %d: incremental d = %v, fresh d = %v (diff %g)",
					*checked, j, d[j], fresh[j], diff)
			}
		}
		*checked++
	}
	tb.Cleanup(func() { testHookPrices = nil })
	return checked
}
