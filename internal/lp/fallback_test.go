package lp

import (
	"math"
	"testing"

	"calib/internal/obs"
)

// TestColdFallbackDivergenceCounter pins the divergence guard's
// telemetry: a warm basis that is primal infeasible (a basic variable
// parked above its bound) while dual infeasibility makes the repair's
// first ratio-test winner carry a wrong-signed theta must trip the
// s*theta guard in iterateDual, fall back to a cold solve, and
// increment lp_cold_fallback_total{reason="divergence"}. If the guard
// ever stops firing, the counter stays at zero and this test fails —
// the guards can never silently rot.
func TestColdFallbackDivergenceCounter(t *testing.T) {
	// min x - 5y, 0 <= x,y <= 10, s.t. x + y >= 15, y <= 12.
	// Optimum: y = 10, x = 5, objective -45.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", -5)
	p.SetUpper(x, 10)
	p.SetUpper(y, 10)
	p.AddConstraint(GE, 15, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 12, Term{y, 1})

	// Standard-form columns: 0=x, 1=y, 2=surplus row0, 3=slack row1.
	// Basis {x, slack1} gives B = I, xB = (15, 12): x sits at 15 > 10,
	// so the repair runs with leaveAtUpper in x's row. The only
	// eligible entering column there is y, whose reduced cost is
	// c_y - cB·Binv·A_y = -5 - 1 = -6: clamped to ratio 0 it wins the
	// dual ratio test, and theta = -6 has the wrong sign for the
	// leave-at-upper orientation (s*theta = 6 >> 1e-5).
	warm := &Basis{Basic: []int{x, 3}, Vars: 2, Rows: 2}

	reg := obs.NewRegistry()
	sol, err := SolveWith(p, Options{Warm: warm, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-(-45)) > 1e-9 {
		t.Fatalf("fallback solve: status %v objective %v, want Optimal -45",
			sol.Status, sol.Objective)
	}

	if got := reg.CounterWith(obs.MLPColdFallback, "reason", obs.ReasonDivergence).Value(); got != 1 {
		t.Errorf("%s{reason=%q} = %d, want 1", obs.MLPColdFallback, obs.ReasonDivergence, got)
	}
	if got := reg.Counter(obs.MLPWarmMisses).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MLPWarmMisses, got)
	}
	if got := reg.Counter(obs.MLPWarmHits).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MLPWarmHits, got)
	}
	if got := reg.Counter(obs.MLPColdSolves).Value(); got != 1 {
		t.Errorf("%s = %d, want 1 (the fallback)", obs.MLPColdSolves, got)
	}
}

// TestWarmHitCounters is the counterpart: a clean warm start on the
// unchanged problem must count as a hit with no fallback.
func TestWarmHitCounters(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", -5)
	p.SetUpper(x, 10)
	p.SetUpper(y, 10)
	p.AddConstraint(GE, 15, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 12, Term{y, 1})
	first, err := Solve(p)
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold solve: %v %v", first.Status, err)
	}

	reg := obs.NewRegistry()
	sol, err := SolveWith(p, Options{Warm: first.Basis, Metrics: reg})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-first.Objective) > 1e-9 {
		t.Fatalf("warm solve: %v %v err %v", sol.Status, sol.Objective, err)
	}
	if got := reg.Counter(obs.MLPWarmHits).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MLPWarmHits, got)
	}
	if got := reg.Counter(obs.MLPWarmMisses).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MLPWarmMisses, got)
	}
	if got := reg.Counter(obs.MLPColdFallback).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MLPColdFallback, got)
	}
}
