package calib_test

import (
	"math/rand"
	"testing"

	"calib"
	"calib/internal/workload"
)

// TestParallelismAgreement: decomposition on and off must agree on
// feasibility and LP objective on mixed instances.
func TestParallelismAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		inst, _ := workload.Mixed(rng, 14, 2, 10, 0.6)
		mono, err := calib.Solve(inst, nil)
		if err != nil {
			t.Fatalf("trial %d monolithic: %v", trial, err)
		}
		par, err := calib.Solve(inst, &calib.Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if err := calib.Validate(inst, par.Schedule); err != nil {
			t.Fatalf("trial %d: parallel schedule infeasible: %v", trial, err)
		}
		if d := mono.LPObjective - par.LPObjective; d > 1e-6 || d < -1e-6 {
			t.Fatalf("trial %d: LP objective monolithic %v != parallel %v", trial, mono.LPObjective, par.LPObjective)
		}
	}
}

// TestParallelismOption: clustered instances decompose; the result
// stays feasible, deterministic across worker counts, and reports the
// summed LP objective.
func TestParallelismOption(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	inst, _ := workload.Clustered(rng, 3, 6, 2, 10)
	mono, err := calib.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		sol, err := calib.Solve(inst, &calib.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if err := calib.Validate(inst, sol.Schedule); err != nil {
			t.Fatalf("par %d: infeasible: %v", par, err)
		}
		if d := mono.LPObjective - sol.LPObjective; d > 1e-6 || d < -1e-6 {
			t.Fatalf("par %d: LP objective %v != monolithic %v", par, sol.LPObjective, mono.LPObjective)
		}
	}
}

// TestMMLPSearchBox exercises the new MM black box through the facade.
func TestMMLPSearchBox(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	inst, _ := workload.Mixed(rng, 12, 2, 8, 0.3)
	sol, err := calib.Solve(inst, &calib.Options{MMBox: calib.MMLPSearch})
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if calib.MMLPSearch.String() != "lp-search" {
		t.Fatalf("MMLPSearch.String() = %q", calib.MMLPSearch.String())
	}
}
