package mm

import (
	"math/rand"
	"sort"

	"calib/internal/ise"
	"calib/internal/lp"
	"calib/internal/obs"
	"calib/internal/robust"
)

// LPSearch is a machine-minimization box built on warm-started
// feasibility LPs: it binary-searches the smallest machine count m
// whose time-indexed LP (the LPRound relaxation with m fixed as a
// constant) is feasible, then rounds the final LP marginals the way
// LPRound does and falls back to Greedy when rounding loses.
//
// Between probes only the overlap rows' right-hand side changes, so
// the LP engine's basis from the previous machine count maps onto
// the next problem unchanged; a handful of dual-simplex pivots repair
// it instead of a from-scratch two-phase solve. Infeasible probes are
// re-proven cold by the engine, so the search result is exact LP
// feasibility regardless of basis quality.
//
// Compared to LPRound, the LP lower bound is integral (the smallest
// feasible integer m rather than the fractional optimum), which makes
// it at least as tight.
type LPSearch struct {
	// Trials is the number of rounding samples (default 32).
	Trials int
	// Seed seeds the rounding RNG (default 1).
	Seed int64
	// MaxVars caps the LP size; above it Solve falls back to Greedy
	// (default 20000).
	MaxVars int
	// Metrics receives the mm_* counter series (see internal/obs);
	// nil disables telemetry at zero cost.
	Metrics *obs.Registry
	// Control carries cancellation/budget limits into the probe LPs. A
	// tripped control aborts with its taxonomy error instead of keeping
	// the greedy answer. nil means no limits.
	Control *robust.Control
}

// Name implements Solver.
func (LPSearch) Name() string { return "lp-search" }

// Solve implements Solver.
func (l LPSearch) Solve(inst *ise.Instance) (*Schedule, error) {
	s, _, err := l.SolveStats(inst)
	return s, err
}

// SolveWithStats returns the smallest LP-feasible machine count (an
// integral lower bound on the MM optimum), or 0 when the LP was
// skipped. Thin wrapper over SolveStats, kept for the experiment
// tables.
func (l LPSearch) SolveWithStats(inst *ise.Instance) (*Schedule, int, error) {
	s, st, err := l.SolveStats(inst)
	return s, st.MinFeasible, err
}

// SolveStats is Solve with the full solve statistics.
func (l LPSearch) SolveStats(inst *ise.Instance) (*Schedule, Stats, error) {
	var st Stats
	if err := inst.Validate(); err != nil {
		return nil, st, err
	}
	if inst.N() == 0 {
		return &Schedule{Machines: 1}, st, nil
	}
	met := l.Metrics
	trials := l.Trials
	if trials == 0 {
		trials = 32
	}
	maxVars := l.MaxVars
	if maxVars == 0 {
		maxVars = 20000
	}
	greedy, err := Greedy{}.Solve(inst)
	if err != nil {
		return nil, st, err
	}
	nvars := 0
	for _, j := range inst.Jobs {
		nvars += int(j.Slack()) + 1
	}
	if nvars > maxVars {
		st.Skipped = true
		met.Counter(obs.MMMLPSkipped).Inc()
		return greedy, st, nil
	}

	// Feasibility LP for a fixed machine count: unit assignment per
	// job, overlap at most m at every event tick. The m-dependent rhs
	// rows are built with a placeholder and patched per probe.
	prob := lp.NewProblem()
	var cands []startCand
	perJob := make([][]int, inst.N())
	for id, j := range inst.Jobs {
		for s := j.Release; s <= j.Deadline-j.Processing; s++ {
			v := prob.AddVar("", 0)
			prob.SetUpper(v, 1) // implied by the assignment row; tightens probes
			perJob[id] = append(perJob[id], len(cands))
			cands = append(cands, startCand{job: id, start: s, v: v})
		}
	}
	for id := range inst.Jobs {
		terms := make([]lp.Term, 0, len(perJob[id]))
		for _, ci := range perJob[id] {
			terms = append(terms, lp.Term{Var: cands[ci].v, Coeff: 1})
		}
		prob.AddConstraint(lp.EQ, 1, terms...)
	}
	ticks := map[ise.Time]struct{}{}
	for _, c := range cands {
		ticks[c.start] = struct{}{}
	}
	tickList := make([]ise.Time, 0, len(ticks))
	for t := range ticks {
		tickList = append(tickList, t)
	}
	sort.Slice(tickList, func(a, b int) bool { return tickList[a] < tickList[b] })
	overlapRows := []int{}
	for _, t := range tickList {
		var terms []lp.Term
		for _, c := range cands {
			if c.start <= t && t < c.start+inst.Jobs[c.job].Processing {
				terms = append(terms, lp.Term{Var: c.v, Coeff: 1})
			}
		}
		if len(terms) > 0 {
			overlapRows = append(overlapRows, prob.NumRows())
			prob.AddConstraint(lp.LE, 1, terms...)
		}
	}

	probe := func(m int, warm *lp.Basis) (*lp.Solution, error) {
		for _, r := range overlapRows {
			prob.SetRHS(r, float64(m))
		}
		st.Probes++
		met.Counter(obs.MMMLPProbes).Inc()
		sol, err := lp.SolveWith(prob, lp.Options{Warm: warm, Metrics: met, Check: l.Control.CheckFunc("mm")})
		if err == nil {
			met.Counter(obs.MLPPivots).Add(int64(sol.Iterations))
			if sol.Status == lp.Infeasible {
				st.Infeasible++
				met.Counter(obs.MMMLPInfeasible).Inc()
			}
		}
		return sol, err
	}

	// Binary search the smallest LP-feasible m in [1, greedy]. The
	// greedy schedule is integrally feasible, so the top is feasible;
	// feasibility is monotone in m.
	lo, hi := 1, greedy.Machines
	var warm *lp.Basis
	var feasX []float64
	for lo < hi {
		mid := lo + (hi-lo)/2
		sol, err := probe(mid, warm)
		if err != nil {
			if sol != nil && sol.Status == lp.Aborted {
				return nil, st, err
			}
			return greedy, st, nil
		}
		switch sol.Status {
		case lp.Optimal:
			hi = mid
			feasX = sol.X
			warm = sol.Basis
		case lp.Infeasible:
			lo = mid + 1
		default:
			return greedy, st, nil // numerical trouble: keep the greedy answer
		}
	}
	st.MinFeasible = lo
	if feasX == nil {
		// The search never probed below greedy.Machines (range was
		// already tight); solve once for the marginals.
		sol, err := probe(lo, warm)
		if err != nil {
			if sol != nil && sol.Status == lp.Aborted {
				return nil, st, err
			}
			return greedy, st, nil
		}
		if sol.Status != lp.Optimal {
			return greedy, st, nil
		}
		feasX = sol.X
	}

	rng := rand.New(rand.NewSource(l.Seed + 1))
	best := greedy
	for trial := 0; trial < trials; trial++ {
		starts := make([]ise.Time, inst.N())
		for id := range inst.Jobs {
			starts[id] = sampleStart(rng, feasX, cands, perJob[id])
		}
		if s, ok := colorIntervals(inst, starts); ok && s.Machines < best.Machines {
			best = s
		}
	}
	st.Trials = trials
	met.Counter(obs.MMMTrials).Add(int64(trials))
	return best, st, nil
}
