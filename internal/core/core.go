// Package core assembles the complete ISE approximation algorithm of
// Fineman & Sheridan (SPAA 2015), Theorem 1: partition the jobs into
// long-window and short-window subsets (Definition 1), schedule the
// long jobs with the LP-based TISE algorithm (Section 3) and the short
// jobs with the MM-black-box algorithm (Section 4) on disjoint
// machines, and take the union.
//
// With an s-speed alpha-approximate MM box, the combined algorithm is
// an O(alpha)-machine s-speed O(alpha)-approximation for the number of
// calibrations.
package core

import (
	"fmt"
	"sync"
	"time"

	"calib/internal/decomp"
	"calib/internal/fault"
	"calib/internal/ise"
	"calib/internal/mm"
	"calib/internal/obs"
	"calib/internal/robust"
	"calib/internal/shortwin"
	"calib/internal/tise"
)

// Options configures the combined solver.
type Options struct {
	// MM is the machine-minimization black box for short-window jobs;
	// defaults to mm.Greedy{}.
	MM mm.Solver
	// Engine selects the LP backend for long-window jobs: Float64
	// (revised simplex on a sparse LU basis, default) or Rational
	// (exact).
	Engine tise.Engine
	// TrimIdle enables the short-window idle-calibration trimming
	// optimization (off = paper-faithful).
	TrimIdle bool
	// Gamma overrides the long/short window threshold (jobs with
	// window >= Gamma*T go to the long-window algorithm). 0 means the
	// paper's Gamma = 2; larger values are valid per the paper's
	// Section 3 remark and traded off in experiment T11.
	Gamma int
	// Strategy is kept only for the benchmark harness (perfbench/),
	// which sets it; tise.Direct is its only value and nothing reads
	// it.
	Strategy tise.Strategy
	// Parallelism enables time-component decomposition: when > 0 the
	// instance is split at release/deadline gaps of at least T (no
	// calibration can span such a gap, so the optimum decomposes
	// exactly — see internal/decomp) and the components are solved
	// concurrently by up to Parallelism workers, then merged on
	// disjoint machine blocks in component order (deterministic
	// output). 0 (the default) keeps the monolithic single-threaded
	// solve.
	Parallelism int
	// Trace, when non-nil, records the solve's phase spans (partition,
	// long-window lp/rounding/edf, short-window mm, per-component
	// spans on the decomposed path) under Trace.Root().
	Trace *obs.Trace
	// Metrics receives the solver counter/gauge/histogram series (see
	// internal/obs/names.go for the catalogue). When Trace or Metrics
	// is nil, the process-wide default (obs.SetDefault /
	// obs.SetDefaultTrace) is used; with neither installed, telemetry
	// is disabled at zero cost.
	Metrics *obs.Registry
	// Control carries the solve's cancellation context and work budget
	// into every long-running loop of the pipeline (LP pivots, MM
	// probes, the decomposition pool). nil means no limits.
	Control *robust.Control
	// Fault, when non-nil, arms deterministic fault injection at the
	// solver-phase points (solve_panic, solve_latency, budget_burn) —
	// the chaos suite's way of proving the containment layers work. nil
	// (the default) disables injection at the same zero cost as a nil
	// Control.
	Fault *fault.Injector
}

// Result is the output of Solve.
type Result struct {
	// Schedule is the merged feasible ISE schedule for the full
	// instance.
	Schedule *ise.Schedule
	// Long is the long-window sub-result (nil when there are no long
	// jobs); its placements refer to the long sub-instance's job IDs.
	Long *tise.Result
	// Short is the short-window sub-result (nil when there are no
	// short jobs).
	Short *shortwin.Result
	// LongJobs and ShortJobs count the partition sizes.
	LongJobs, ShortJobs int
	// LongTime and ShortTime are the wall clocks of the two
	// sub-pipelines (summed across components on the decomposed path).
	LongTime, ShortTime time.Duration
	// Components is how many independent time components were solved
	// (1 on the monolithic path or when no gap splits the instance).
	Components int
	// LPObjective is the long-window LP optimum summed across
	// components; it equals Long.LP.Objective on the monolithic path
	// and 0 when there are no long jobs. Because no calibration spans
	// a decomposition gap, the sum lower-bounds the optimal TISE
	// calibration count exactly as the monolithic objective does.
	LPObjective float64
	// Parts holds the per-component results on the decomposed path
	// (nil otherwise); Parts[i].Schedule uses component-local job IDs.
	Parts []*Result
}

// Solve runs the combined algorithm. The two sub-algorithms run on
// disjoint machine blocks: long-window machines first, then
// short-window machines. With Options.Parallelism > 0 the instance is
// first decomposed into independent time components (see
// internal/decomp) solved concurrently.
func Solve(inst *ise.Instance, opts Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	gamma := opts.Gamma
	if gamma == 0 {
		gamma = shortwin.Gamma
	}
	if gamma < 2 {
		return nil, fmt.Errorf("core: gamma = %d, want >= 2", gamma)
	}
	tr, met := opts.Trace, opts.Metrics
	if tr == nil {
		tr = obs.DefaultTrace()
	}
	if met == nil {
		met = obs.Default()
	}
	obs.Declare(met)
	sp := tr.Root().Start("solve")
	sp.SetInt("jobs", int64(inst.N()))
	sp.SetInt("machines", int64(inst.M))
	sp.SetInt("gamma", int64(gamma))
	t0 := time.Now()
	var res *Result
	var err error
	if opts.Parallelism > 0 {
		dsp := sp.Start("decompose")
		comps := decomp.Split(inst)
		dsp.SetInt("components", int64(len(comps)))
		dsp.End()
		if len(comps) > 1 {
			met.Gauge(obs.MDecompComponents).Set(float64(len(comps)))
			res, err = solveDecomposed(comps, opts, gamma, sp, met)
		} else {
			met.Gauge(obs.MDecompComponents).Set(1)
			res, err = solveMono(inst, opts, gamma, sp, met)
		}
	} else {
		met.Gauge(obs.MDecompComponents).Set(1)
		res, err = solveMono(inst, opts, gamma, sp, met)
	}
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetInt("calibrations", int64(res.Schedule.NumCalibrations()))
	sp.SetFloat("lp_objective", res.LPObjective)
	sp.End()
	met.Histogram(obs.MSolveSeconds, nil).Observe(time.Since(t0).Seconds())
	return res, nil
}

// solveMono is the single-component pipeline: partition long/short,
// run the two sub-algorithms, merge on disjoint machine blocks. parent
// receives the partition/long/short phase spans; met the per-component
// solve-time histogram (both may be nil).
func solveMono(inst *ise.Instance, opts Options, gamma int, parent *obs.Span, met *obs.Registry) (*Result, error) {
	if err := injectFaults(opts); err != nil {
		return nil, err
	}
	t0 := time.Now()
	psp := parent.Start("partition")
	long, short, longIDs, shortIDs := inst.PartitionAt(ise.Time(gamma) * inst.T)
	psp.SetInt("long", int64(long.N()))
	psp.SetInt("short", int64(short.N()))
	psp.End()
	res := &Result{LongJobs: long.N(), ShortJobs: short.N(), Components: 1}
	merged := ise.NewSchedule(0)
	offset := 0
	if long.N() > 0 {
		t1 := time.Now()
		lsp := parent.Start("long")
		lr, err := tise.Solve(long, tise.Options{
			Engine: opts.Engine, Span: lsp, Metrics: met, Control: opts.Control,
		})
		if err != nil {
			lsp.End()
			return nil, err
		}
		lsp.SetFloat("lp_objective", lr.LP.Objective)
		lsp.End()
		res.LongTime = time.Since(t1)
		res.Long = lr
		res.LPObjective = lr.LP.Objective
		ls := lr.Schedule.Clone()
		ls.RenumberJobs(longIDs)
		merged.Merge(ls, 0)
		offset = ls.Machines
	}
	if short.N() > 0 {
		t1 := time.Now()
		ssp := parent.Start("short")
		sr, err := shortwin.Solve(short, shortwin.Options{
			MM: opts.MM, TrimIdle: opts.TrimIdle, Gamma: gamma,
			Span: ssp, Metrics: met, Control: opts.Control,
		})
		if err != nil {
			ssp.End()
			return nil, err
		}
		ssp.SetInt("intervals", int64(len(sr.Intervals)))
		ssp.End()
		res.ShortTime = time.Since(t1)
		res.Short = sr
		ss := sr.Schedule.Clone()
		ss.RenumberJobs(shortIDs)
		merged.Merge(ss, offset)
	}
	if merged.Machines == 0 {
		merged.Machines = 1
	}
	res.Schedule = merged
	met.Histogram(obs.MDecompCompSecs, nil).Observe(time.Since(t0).Seconds())
	return res, nil
}

// injectFaults runs the armed solver-phase injection points at the
// start of a component solve: artificial latency first (the solve
// slows down), then a budget burn charged against the solve's Control
// (a burned budget trips ErrBudgetExhausted exactly like real work
// would), then a panic (absorbed by the same containment —
// RecoverTo, the ladder — that guards real solver panics). With a nil
// injector all three are nil-check no-ops.
func injectFaults(opts Options) error {
	f := opts.Fault
	if f.Hit(fault.SolveLatency) {
		time.Sleep(f.Duration(fault.SolveLatency))
	}
	if f.Hit(fault.BudgetBurn) {
		if err := opts.Control.Charge(f.Amount(fault.BudgetBurn)); err != nil {
			return err
		}
	}
	if f.Hit(fault.SolvePanic) {
		panic("fault: injected solver panic (solve_panic)")
	}
	return nil
}

// testHookComponent, when non-nil, runs at the start of every
// decomposition-pool component solve. It exists so the pool's panic
// containment can be exercised deterministically from tests (an
// injected panic must fail only its component, never leak a worker);
// it is nil outside tests and costs one predictable branch.
var testHookComponent func(component int)

// solveComponent runs one component through solveMono with panic
// containment and component provenance: a panicking solver phase is
// converted to a robust.ErrPanic taxonomy error (counted in
// robust_panics_total) instead of killing the worker — which would
// leave the pool's WaitGroup waiting forever.
func solveComponent(i, w int, comp decomp.Component, opts Options, gamma int, parent *obs.Span, met *obs.Registry) (res *Result, err error) {
	csp := parent.Start("component")
	csp.SetInt("index", int64(i))
	csp.SetInt("worker", int64(w))
	defer csp.End()
	defer robust.RecoverTo(&err, "pool", i, met)
	if testHookComponent != nil {
		testHookComponent(i)
	}
	res, err = solveMono(comp.Inst, opts, gamma, csp, met)
	if err != nil {
		err = robust.Componentize(err, i)
	}
	return res, err
}

// solveDecomposed solves each time component with solveMono on a
// bounded worker pool and merges the component schedules on disjoint
// machine blocks in component order, so the output is deterministic
// regardless of worker interleaving.
//
// The task channel is buffered to the full component count and filled
// before the workers start: the feeder can never block, so even if
// every worker died the pool would still unwind (the per-component
// panic containment in solveComponent makes that a non-event anyway).
func solveDecomposed(comps []decomp.Component, opts Options, gamma int, parent *obs.Span, met *obs.Registry) (*Result, error) {
	workers := opts.Parallelism
	if workers > len(comps) {
		workers = len(comps)
	}
	results := make([]*Result, len(comps))
	errs := make([]error, len(comps))
	tasks := make(chan int, len(comps))
	for i := range comps {
		tasks <- i
	}
	close(tasks)
	dispatched := met.Counter(obs.MDecompTasks)
	busy := met.Gauge(obs.MDecompPoolBusy)
	peak := met.Gauge(obs.MDecompPoolMax)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range tasks {
				dispatched.Inc()
				peak.SetMax(busy.Add(1))
				results[i], errs[i] = solveComponent(i, w, comps[i], opts, gamma, parent, met)
				busy.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	agg := &Result{Components: len(comps), Parts: results}
	merged := ise.NewSchedule(0)
	offset := 0
	for i, part := range results {
		ps := part.Schedule.Clone()
		ps.RenumberJobs(comps[i].IDs)
		merged.Merge(ps, offset)
		offset += ps.Machines
		agg.LongJobs += part.LongJobs
		agg.ShortJobs += part.ShortJobs
		agg.LongTime += part.LongTime
		agg.ShortTime += part.ShortTime
		agg.LPObjective += part.LPObjective
	}
	if merged.Machines == 0 {
		merged.Machines = 1
	}
	agg.Schedule = merged
	return agg, nil
}
