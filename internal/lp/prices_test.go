package lp_test

import (
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/lp"
	"calib/internal/tise"
	"calib/internal/workload"
)

// TestIncrementalPricesMatchFresh solves the TISE relaxations of the
// golden-file workload cells (testdata/golden/lp_paths.json at the
// repository root: families × n × seeds 1-3, long-window jobs on
// m' = 3m machines) and checks, after every primal pivot, that the
// reduced costs updated from the pivot row match a fresh pricing of
// the same basis. n=80 is skipped under -short.
func TestIncrementalPricesMatchFresh(t *testing.T) {
	checked := lp.CheckPricesAfterPivots(t)
	for _, fam := range []string{"mixed", "long", "clustered", "poisson", "crossing"} {
		for _, n := range []int{20, 40, 80} {
			if testing.Short() && n >= 80 {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				inst, err := workload.Family(rand.New(rand.NewSource(seed)), fam,
					workload.FamilyConfig{N: n, M: 2, T: 10})
				if err != nil {
					t.Fatal(err)
				}
				long := ise.NewInstance(inst.T, inst.M)
				for _, j := range inst.Jobs {
					if j.IsLong(inst.T) {
						long.AddJob(j.Release, j.Deadline, j.Processing)
					}
				}
				if long.N() == 0 {
					continue
				}
				p, _, _ := tise.BuildLP(long, 3*long.M, tise.CalibrationPoints(long))
				sol, err := lp.Solve(p)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != lp.Optimal {
					t.Fatalf("%s/n%d/s%d: status %v", fam, n, seed, sol.Status)
				}
			}
		}
	}
	if *checked == 0 {
		t.Fatal("no pivot was checked")
	}
	t.Logf("%d pivots checked", *checked)
}
