package mm

import (
	"math/rand"
	"sort"

	"calib/internal/ise"
	"calib/internal/lp"
	"calib/internal/obs"
	"calib/internal/robust"
)

// LPRound is a time-indexed LP relaxation of MM followed by randomized
// rounding, in the spirit of the Raghavan–Thompson approach the paper
// cites for the machine-minimization problem. Start-time variables
// y[j,s] are created for every integer start in [r_j, d_j - p_j]; the
// LP minimizes the machine count m subject to unit assignment per job
// and total overlap at most m at every event tick. Rounding samples a
// start per job from its LP marginal, takes the best of Trials
// samples, and colors the resulting interval graph greedily.
//
// LPRound falls back to Greedy's schedule if it beats the rounded one
// (so the box never does worse than Greedy). The LP value is exposed
// via SolveWithStats as a machine lower bound.
//
// The candidate start set is complete for integer inputs, so the LP is
// a true relaxation; the variable count is O(n * maxSlack), which
// limits this box to laptop-scale instances.
type LPRound struct {
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
	// Control carries cancellation/budget limits into the LP solve. A
	// tripped control aborts with its taxonomy error instead of falling
	// back to Greedy. nil means no limits.
	Control *robust.Control
}

// Name implements Solver.
func (LPRound) Name() string { return "lp-round" }

// Solve implements Solver.
func (l LPRound) Solve(inst *ise.Instance) (*Schedule, error) {
	s, _, err := l.SolveStats(inst)
	return s, err
}

// SolveWithStats returns the LP objective (fractional machine count, a
// lower bound on OPT), or 0 when the LP was skipped. Thin wrapper over
// SolveStats, kept for the experiment tables.
func (l LPRound) SolveWithStats(inst *ise.Instance) (*Schedule, float64, error) {
	s, st, err := l.SolveStats(inst)
	return s, st.LPObjective, err
}

// SolveStats is Solve with the full solve statistics.
func (l LPRound) SolveStats(inst *ise.Instance) (*Schedule, Stats, error) {
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

	// Candidate starts per job: every integer in [r_j, d_j - p_j].
	nvars := 0
	for _, j := range inst.Jobs {
		nvars += int(j.Slack()) + 1
	}
	if nvars > maxVars {
		st.Skipped = true
		met.Counter(obs.MMMLPSkipped).Inc()
		return greedy, st, nil
	}
	prob := lp.NewProblem()
	mVar := prob.AddVar("m", 1)
	var cands []startCand
	perJob := make([][]int, inst.N())
	for id, j := range inst.Jobs {
		for s := j.Release; s <= j.Deadline-j.Processing; s++ {
			v := prob.AddVar("", 0)
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
	// Overlap constraints at event ticks: starts and releases suffice
	// (overlap counts only change there).
	ticks := map[ise.Time]struct{}{}
	for _, c := range cands {
		ticks[c.start] = struct{}{}
	}
	tickList := make([]ise.Time, 0, len(ticks))
	for t := range ticks {
		tickList = append(tickList, t)
	}
	sort.Slice(tickList, func(a, b int) bool { return tickList[a] < tickList[b] })
	for _, t := range tickList {
		terms := []lp.Term{{Var: mVar, Coeff: -1}}
		for _, c := range cands {
			if c.start <= t && t < c.start+inst.Jobs[c.job].Processing {
				terms = append(terms, lp.Term{Var: c.v, Coeff: 1})
			}
		}
		if len(terms) > 1 {
			prob.AddConstraint(lp.LE, 0, terms...)
		}
	}
	sol, err := lp.SolveTableau(prob, l.Control.CheckFunc("mm"))
	st.LPSolves++
	met.Counter(obs.MMMLPSolves).Inc()
	if err != nil && (sol == nil || sol.Status == lp.Aborted) {
		return nil, st, err
	}
	if err != nil || sol.Status != lp.Optimal {
		return greedy, st, nil
	}
	met.Counter(obs.MLPPivots).Add(int64(sol.Iterations))
	st.LPObjective = sol.Objective

	rng := rand.New(rand.NewSource(l.Seed + 1))
	best := greedy
	for trial := 0; trial < trials; trial++ {
		starts := make([]ise.Time, inst.N())
		for id := range inst.Jobs {
			starts[id] = sampleStart(rng, sol.X, cands, perJob[id])
		}
		if s, ok := colorIntervals(inst, starts); ok && s.Machines < best.Machines {
			best = s
		}
	}
	st.Trials = trials
	met.Counter(obs.MMMTrials).Add(int64(trials))
	return best, st, nil
}

// startCand is one (job, start) candidate of the time-indexed LP and
// its variable index.
type startCand struct {
	job   int
	start ise.Time
	v     int
}

// sampleStart draws a start time from the job's LP marginal.
func sampleStart(rng *rand.Rand, x []float64, cands []startCand, idxs []int) ise.Time {
	total := 0.0
	for _, ci := range idxs {
		total += x[cands[ci].v]
	}
	if total <= 0 {
		return cands[idxs[0]].start
	}
	r := rng.Float64() * total
	for _, ci := range idxs {
		r -= x[cands[ci].v]
		if r <= 0 {
			return cands[ci].start
		}
	}
	return cands[idxs[len(idxs)-1]].start
}

// colorIntervals assigns machines to jobs with fixed start times by
// greedy interval-graph coloring (optimal for intervals); returns
// false if some start misses a window (cannot happen for candidate
// starts).
func colorIntervals(inst *ise.Instance, starts []ise.Time) (*Schedule, bool) {
	order := make([]int, inst.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if starts[order[a]] != starts[order[b]] {
			return starts[order[a]] < starts[order[b]]
		}
		return order[a] < order[b]
	})
	var avail []ise.Time // per machine: time it frees up
	s := &Schedule{}
	for _, id := range order {
		j := inst.Jobs[id]
		st := starts[id]
		if st < j.Release || st+j.Processing > j.Deadline {
			return nil, false
		}
		assigned := -1
		for k := range avail {
			if avail[k] <= st {
				assigned = k
				break
			}
		}
		if assigned < 0 {
			avail = append(avail, ise.Time(-1)<<60)
			assigned = len(avail) - 1
		}
		avail[assigned] = st + j.Processing
		s.Placements = append(s.Placements, ise.Placement{Job: id, Machine: assigned, Start: st})
	}
	s.Machines = len(avail)
	return s, true
}
