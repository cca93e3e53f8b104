package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"calib/internal/decomp"
	"calib/internal/exact"
	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/robust"
	"calib/internal/shortwin"
)

// RobustOptions configures SolveRobust. The embedded Options carry the
// pipeline configuration (engine, MM box, parallelism,
// telemetry) and — crucially — the Control whose deadline/budget drive
// the degradation ladder.
type RobustOptions struct {
	Options
	// ExactJobs gates the exact rung: a component is attempted exactly
	// only when it has at most this many jobs (branch-and-bound is
	// exponential). 0 means 12; negative disables the exact rung.
	ExactJobs int
	// ExactNodes caps the exact rung's search tree per component; 0
	// means 500_000. The cap makes the rung fail fast (and fall to the
	// LP rung) on adversarial components instead of eating the whole
	// deadline.
	ExactNodes int
}

// defaults for RobustOptions.
const (
	defaultExactJobs  = 12
	defaultExactNodes = 500_000
)

// rung deadline slices: exact may burn at most half the remaining
// deadline, the LP pipeline most of the rest; the heuristic rung runs
// uncontrolled (it is near-linear) so a fully expired deadline still
// produces an answer.
const (
	exactSlice = 0.5
	lpSlice    = 0.9
)

// ComponentReport describes how one time component was answered.
type ComponentReport struct {
	// Component is the component index (decomp.Split order).
	Component int
	// Jobs is the component's job count.
	Jobs int
	// Rung names the answering rung: "exact", "lp", or "heur".
	Rung string
	// Attempts lists the rungs that failed before Rung answered, with
	// their taxonomy reasons.
	Attempts []robust.Attempt
	// Calibrations is the component schedule's calibration count (an
	// upper bound on the component optimum).
	Calibrations int
	// LowerBound lower-bounds the component's optimal TISE calibration
	// count: the exact optimum on the exact rung, the long-window LP
	// objective on the lp rung, 0 (vacuous) on the heur rung.
	LowerBound float64
	// Exact reports that Calibrations is provably optimal for the
	// component (exact rung, search completed).
	Exact bool
	// schedule carries the component schedule (component-local job IDs)
	// from the pool worker to the merge; nil after SolveRobust returns.
	schedule *ise.Schedule
}

// RobustResult is the output of SolveRobust: a feasible schedule plus
// per-component provenance and bound certificates.
type RobustResult struct {
	// Schedule is the merged feasible ISE schedule (component blocks on
	// disjoint machines, component order).
	Schedule *ise.Schedule
	// Components is the number of independent time components solved.
	Components int
	// Reports holds one entry per component, in component order.
	Reports []ComponentReport
	// Degraded reports whether any component fell past its first
	// eligible rung.
	Degraded bool
	// UpperBound is Schedule.NumCalibrations(): the certificate that a
	// feasible schedule with this many calibrations exists.
	UpperBound int
	// LowerBound sums the per-component lower bounds. Components
	// answered by the heuristic rung contribute 0, so the bound is
	// valid (if weak) under any degradation.
	LowerBound float64
	// Exact reports that every component was answered by a completed
	// exact search, making UpperBound the true optimum.
	Exact bool
}

// RungSummary names the rungs that answered, comma-joined and
// deduplicated in ladder order ("exact,lp" when some components
// answered exactly and others degraded to the LP). The decision log
// stamps it into each request's record.
func (r *RobustResult) RungSummary() string {
	if r == nil || len(r.Reports) == 0 {
		return ""
	}
	var seen [3]bool // exact, lp, heur — ladder order
	other := ""
	for _, rep := range r.Reports {
		switch rep.Rung {
		case "exact":
			seen[0] = true
		case "lp":
			seen[1] = true
		case "heur":
			seen[2] = true
		default:
			other = rep.Rung
		}
	}
	parts := make([]string, 0, 4)
	for i, name := range [3]string{"exact", "lp", "heur"} {
		if seen[i] {
			parts = append(parts, name)
		}
	}
	if other != "" {
		parts = append(parts, other)
	}
	return strings.Join(parts, ",")
}

// Falls flattens every component's failed rung attempts into
// "rung:reason" tokens, in component order. Empty for an undegraded
// solve.
func (r *RobustResult) Falls() []string {
	if r == nil || !r.Degraded {
		return nil
	}
	var falls []string
	for _, rep := range r.Reports {
		for _, a := range rep.Attempts {
			falls = append(falls, a.String())
		}
	}
	return falls
}

// componentAnswer is what a ladder rung returns through RunLadder's
// untyped Value.
type componentAnswer struct {
	sched *ise.Schedule
	lower float64
	exact bool
}

// SolveRobust is Solve with graceful degradation. The instance is
// decomposed into time components (always — the decomposition is exact
// and gives the ladder its per-component granularity) and each
// component descends a rung ladder until one answers:
//
//	exact — branch and bound (only for components with at most
//	        ExactJobs jobs); answers only with a completed proof;
//	lp    — the paper's LP + rounding pipeline (Solve's solveMono);
//	heur  — the lazy-binning heuristic with an uncapped machine
//	        budget, run without a control so it answers even after
//	        the deadline has fully expired.
//
// A rung that hits the deadline slice, exhausts the budget, panics, or
// fails numerically falls to the next (recorded in
// robust_fallback_total); a hard caller cancellation aborts the whole
// solve. Each component keeps the strongest certificate its answering
// rung provides, and the merged result reports global upper and lower
// bounds on the calibration count.
//
// The price of degradation is machines, not feasibility: the heur rung
// may use more than inst.M machines (Schedule.Machines says how many),
// mirroring the paper's own machine-augmentation guarantees.
func SolveRobust(inst *ise.Instance, opts RobustOptions) (*RobustResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	gamma := opts.Gamma
	if gamma == 0 {
		gamma = Gamma()
	}
	if gamma < 2 {
		return nil, fmt.Errorf("core: gamma = %d, want >= 2", gamma)
	}
	if opts.ExactJobs == 0 {
		opts.ExactJobs = defaultExactJobs
	}
	if opts.ExactNodes == 0 {
		opts.ExactNodes = defaultExactNodes
	}
	tr, met := opts.Trace, opts.Metrics
	if tr == nil {
		tr = obs.DefaultTrace()
	}
	if met == nil {
		met = obs.Default()
	}
	obs.Declare(met)
	opts.Metrics = met
	sp := tr.Root().Start("solve_robust")
	defer sp.End()
	sp.SetInt("jobs", int64(inst.N()))
	sp.SetInt("machines", int64(inst.M))
	t0 := time.Now()
	comps := decomp.Split(inst)
	if len(comps) == 0 {
		return &RobustResult{
			Schedule: ise.NewSchedule(1), Components: 0, Exact: true,
		}, nil
	}
	sp.SetInt("components", int64(len(comps)))
	met.Gauge(obs.MDecompComponents).Set(float64(len(comps)))

	reports := make([]ComponentReport, len(comps))
	errs := make([]error, len(comps))
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	tasks := make(chan int, len(comps))
	for i := range comps {
		tasks <- i
	}
	close(tasks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				reports[i], errs[i] = solveComponentRobust(i, comps[i], opts, gamma, sp, met)
			}
		}()
	}
	wg.Wait()

	out := &RobustResult{Components: len(comps), Exact: true}
	merged := ise.NewSchedule(0)
	offset := 0
	var schedules = make([]*ise.Schedule, len(comps))
	for i := range comps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		schedules[i] = reports[i].schedule
		reports[i].schedule = nil
	}
	for i, rep := range reports {
		ps := schedules[i].Clone()
		ps.RenumberJobs(comps[i].IDs)
		merged.Merge(ps, offset)
		offset += ps.Machines
		out.LowerBound += rep.LowerBound
		out.Exact = out.Exact && rep.Exact
		out.Degraded = out.Degraded || len(rep.Attempts) > 0
	}
	if merged.Machines == 0 {
		merged.Machines = 1
	}
	out.Schedule = merged
	out.Reports = reports
	out.UpperBound = merged.NumCalibrations()
	sp.SetInt("calibrations", int64(out.UpperBound))
	met.Histogram(obs.MSolveSeconds, nil).Observe(time.Since(t0).Seconds())
	return out, nil
}

// solveComponentRobust descends the rung ladder for one component and
// converts the winning rung's answer into a report. Panics anywhere in
// a rung are contained by RunLadder; panics outside the rungs (report
// assembly) are contained here so a pool worker can never die.
func solveComponentRobust(i int, comp decomp.Component, opts RobustOptions, gamma int, parent *obs.Span, met *obs.Registry) (rep ComponentReport, err error) {
	csp := parent.Start("component")
	csp.SetInt("index", int64(i))
	csp.SetInt("jobs", int64(comp.Inst.N()))
	defer csp.End()
	defer robust.RecoverTo(&err, "pool", i, met)
	if testHookComponent != nil {
		testHookComponent(i)
	}
	res, err := robust.RunLadder(opts.Control, met, i, componentRungs(comp.Inst, opts, gamma, csp, met))
	if err != nil {
		return ComponentReport{Component: i}, err
	}
	ans := res.Value.(componentAnswer)
	csp.SetStr("rung", res.Rung)
	return ComponentReport{
		Component:    i,
		Jobs:         comp.Inst.N(),
		Rung:         res.Rung,
		Attempts:     res.Attempts,
		Calibrations: ans.sched.NumCalibrations(),
		LowerBound:   ans.lower,
		Exact:        ans.exact,
		schedule:     ans.sched,
	}, nil
}

// componentRungs builds the exact→lp→heur ladder for one component
// sub-instance.
func componentRungs(inst *ise.Instance, opts RobustOptions, gamma int, parent *obs.Span, met *obs.Registry) []robust.Rung {
	var rungs []robust.Rung
	if opts.ExactJobs > 0 && inst.N() <= opts.ExactJobs {
		rungs = append(rungs, robust.Rung{
			Name:  "exact",
			Slice: exactSlice,
			Run: func(c *robust.Control) (any, error) {
				res, err := exact.Solve(inst, exact.Options{
					MaxNodes: opts.ExactNodes, WarmStart: true, Control: c,
				})
				if err != nil {
					return nil, err
				}
				if !res.Proven {
					// Node cap hit without proof: the incumbent is not a
					// certificate, so the rung declines and the LP rung
					// takes over.
					return nil, fmt.Errorf("exact: search capped at %d nodes without proof", res.Nodes)
				}
				return componentAnswer{
					sched: res.Schedule, lower: float64(res.Calibrations), exact: true,
				}, nil
			},
		})
	}
	rungs = append(rungs,
		robust.Rung{
			Name:  "lp",
			Slice: lpSlice,
			Run: func(c *robust.Control) (any, error) {
				mono := opts.Options
				mono.Control = c
				res, err := solveMono(inst, mono, gamma, parent, met)
				if err != nil {
					return nil, err
				}
				return componentAnswer{sched: res.Schedule, lower: res.LPObjective}, nil
			},
		},
		robust.Rung{
			Name: "heur",
			// No control: the heuristic is near-linear and must answer
			// even when the deadline has already expired.
			Run: func(*robust.Control) (any, error) {
				sched, err := heur.Lazy(inst, heur.Options{})
				if err != nil {
					return nil, err
				}
				if err := ise.Validate(inst, sched); err != nil {
					return nil, fmt.Errorf("heur schedule invalid: %w", err)
				}
				return componentAnswer{sched: sched}, nil
			},
		},
	)
	return rungs
}

// Gamma returns the default long/short window threshold (the paper's
// gamma = 2), re-exported so RobustOptions callers need not import
// shortwin.
func Gamma() int { return shortwin.Gamma }
