// Package calib is a Go implementation of calibration-minimizing
// scheduling: the Integrated Stockpile Evaluation (ISE) problem of
// Bender et al. (SPAA 2013) for general processing times, as solved by
// Fineman & Sheridan, "Scheduling Non-Unit Jobs to Minimize
// Calibrations" (SPAA 2015).
//
// # The problem
//
// n jobs, each with a release time, a deadline, and a processing time
// p_j <= T, must run nonpreemptively on identical machines. A machine
// is usable only during a calibrated interval [t, t+T); calibrations
// are instantaneous but expensive, and the goal is to finish every job
// by its deadline using as few calibrations as possible.
//
// # The algorithm
//
// Solve partitions jobs by window length (Definition 1 of the paper):
// long-window jobs (d_j - r_j >= 2T) go through an LP relaxation of
// the trimmed-ISE problem, greedy calibration rounding, and EDF
// assignment (Section 3, Theorem 12); short-window jobs go through
// time partitioning and a machine-minimization black box (Section 4,
// Theorem 20). With an alpha-approximate MM box the result is an
// O(alpha)-approximation on O(alpha) times the machines (Theorem 1).
//
// # Quick start
//
//	inst := calib.NewInstance(10, 1) // T=10, one machine
//	inst.AddJob(0, 40, 5)
//	inst.AddJob(30, 40, 8)
//	sol, err := calib.Solve(inst, nil)
//	if err != nil { ... }
//	fmt.Println(sol.Calibrations, sol.Schedule.Calibrations)
//
// Schedules returned by every solver in this module are verified
// feasible by calib.Validate, which checks the four ISE feasibility
// properties exactly (integer arithmetic throughout).
package calib

import (
	"context"
	"fmt"
	"time"

	"calib/internal/bounds"
	"calib/internal/core"
	"calib/internal/exact"
	"calib/internal/fault"
	"calib/internal/heur"
	"calib/internal/improve"
	"calib/internal/ise"
	"calib/internal/mm"
	"calib/internal/obs"
	"calib/internal/online"
	"calib/internal/robust"
	"calib/internal/tise"
	"calib/internal/unitise"
)

// Time is the integer tick type for all schedule quantities.
type Time = ise.Time

// Job is a single job: window [Release, Deadline), processing time
// Processing <= T.
type Job = ise.Job

// Instance is an ISE problem instance; create with NewInstance and
// populate with AddJob.
type Instance = ise.Instance

// Schedule is a solution: calibrations plus one placement per job.
type Schedule = ise.Schedule

// Calibration and Placement are the schedule components.
type (
	Calibration = ise.Calibration
	Placement   = ise.Placement
)

// NewInstance returns an empty instance with calibration length T and
// m machines (the count OPT is compared on; the solver may use more —
// machine augmentation — per the paper's guarantees).
func NewInstance(T Time, m int) *Instance { return ise.NewInstance(T, m) }

// MMBox selects the machine-minimization black box used for
// short-window jobs (Theorem 1 is generic over this choice).
type MMBox int

// Available MM black boxes.
const (
	// MMGreedy is earliest-deadline list scheduling with increasing
	// machine count: fast, always succeeds, empirically near-optimal.
	MMGreedy MMBox = iota
	// MMExact is complete branch-and-bound: alpha = 1, exponential
	// time; use for small instances.
	MMExact
	// MMLPRound is a time-indexed LP with randomized rounding, in the
	// spirit of the Raghavan–Thompson approximation the paper cites.
	MMLPRound
	// MMLPSearch binary-searches the smallest machine count whose
	// time-indexed feasibility LP admits a solution, warm-starting each
	// probe from the previous basis, then rounds like MMLPRound with a
	// greedy fallback.
	MMLPSearch
)

func (b MMBox) String() string {
	switch b {
	case MMGreedy:
		return "greedy"
	case MMExact:
		return "exact"
	case MMLPRound:
		return "lp-round"
	case MMLPSearch:
		return "lp-search"
	default:
		return fmt.Sprintf("MMBox(%d)", int(b))
	}
}

func (b MMBox) solver() mm.Solver {
	switch b {
	case MMExact:
		return mm.Exact{}
	case MMLPRound:
		return mm.LPRound{}
	case MMLPSearch:
		return mm.LPSearch{}
	default:
		return mm.Greedy{}
	}
}

// Options configures Solve. The zero value (or nil) selects the
// paper-faithful defaults: greedy MM box, float64 LP engine, no
// trimming.
type Options struct {
	// MMBox selects the short-window black box.
	MMBox MMBox
	// ExactLP switches the long-window LP to exact rational
	// arithmetic (slower; bit-exact objective).
	ExactLP bool
	// TrimIdleCalibrations drops short-window calibrations that host
	// no job — a feasibility-preserving optimization beyond the paper.
	TrimIdleCalibrations bool
	// CompactMachines recolors the final schedule onto the minimum
	// machines its calibrations allow (optimal interval coloring).
	// The algorithms allocate their worst-case machine budget (18m
	// for the long-window pipeline); compaction recovers the unused
	// part without changing any times.
	CompactMachines bool
	// LocalSearch post-processes the schedule with calibration-
	// elimination local search (internal/improve): never worse,
	// feasibility re-verified, typically strips most of the worst-case
	// padding. Beyond the paper; the approximation guarantee is
	// unaffected (the result only gets better).
	LocalSearch bool
	// Parallelism > 0 decomposes the instance at time gaps of at least
	// T (no calibration can span such a gap, so the optimum splits
	// exactly; see internal/decomp) and solves the components
	// concurrently on up to Parallelism workers. The merged schedule is
	// deterministic — independent of worker count and interleaving. 0
	// keeps the monolithic single-threaded solve.
	Parallelism int
	// Trace, when non-nil, records a hierarchical span tree of the
	// solve (partition, LP, rounding, EDF, MM, per-component spans);
	// render it with Trace.WriteText or Trace.WriteJSON after Solve
	// returns. See docs/OBSERVABILITY.md for the span taxonomy.
	Trace *Trace
	// Metrics, when non-nil, accumulates the solver counter series
	// (LP pivots, LU refactorizations, pool occupancy, ...);
	// export with Metrics.WriteJSON or Metrics.WritePrometheus. Both
	// default to nil — telemetry off, at zero allocation cost.
	Metrics *Metrics
	// Context, when non-nil, cancels the solve: Solve returns
	// ErrCanceled (hard cancel) or ErrDeadline (context deadline)
	// shortly after the context ends, from every phase of the pipeline.
	// SolveRobust instead degrades to cheaper solvers on deadline
	// expiry and aborts only on hard cancellation.
	Context context.Context
	// Timeout, when positive, bounds the solve's wall clock (layered on
	// Context, or on its own when Context is nil).
	Timeout time.Duration
	// Budget, when positive, caps the solve's total work in abstract
	// units — one simplex pivot or one branch-and-bound node is one
	// unit — giving a deterministic limit where wall clock would be
	// machine-dependent. Exhaustion behaves like a deadline: Solve
	// returns ErrBudget, SolveRobust degrades.
	Budget int64
	// Fault, when non-nil, arms deterministic fault injection at the
	// solver-phase points (build with fault.New or fault.ParseSpec; see
	// internal/fault). Injected panics propagate from Solve but are
	// contained — and degraded around — by SolveRobust's ladder. nil
	// (the default) disables injection at zero cost.
	Fault *FaultInjector
}

// FaultInjector is the deterministic fault injector of internal/fault,
// re-exported so in-module callers (the ised daemon, the chaos suite)
// can thread one through Options without importing the internal
// package at every site.
type FaultInjector = fault.Injector

// Taxonomy sentinels for limited solves; test with errors.Is. The
// returned errors additionally carry the failing phase and, on
// decomposed solves, the component index (see internal/robust).
var (
	// ErrCanceled: the caller's Context was canceled.
	ErrCanceled = robust.ErrCanceled
	// ErrDeadline: Timeout (or the Context's deadline) expired. A
	// deadline error also matches ErrCanceled (it is a cancellation);
	// test ErrDeadline first to tell them apart.
	ErrDeadline = context.DeadlineExceeded
	// ErrBudget: the work Budget ran out.
	ErrBudget = robust.ErrBudgetExhausted
)

// coreOptions maps the Options onto the pipeline's, under the limits
// of ctl.
func (o *Options) coreOptions(ctl *robust.Control) core.Options {
	engine := tise.Float64
	if o.ExactLP {
		engine = tise.Rational
	}
	return core.Options{
		MM:          o.MMBox.solver(),
		Engine:      engine,
		TrimIdle:    o.TrimIdleCalibrations,
		Parallelism: o.Parallelism,
		Trace:       o.Trace,
		Metrics:     o.Metrics,
		Control:     ctl,
		Fault:       o.Fault,
	}
}

// control materializes the Options' limit fields into a
// robust.Control. The returned cancel must be called when the solve
// finishes; both are no-ops when no limit is configured.
func (o *Options) control() (*robust.Control, context.CancelFunc) {
	if o.Context == nil && o.Timeout <= 0 && o.Budget <= 0 {
		return nil, func() {}
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if o.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
	}
	met := o.Metrics
	if met == nil {
		met = obs.Default()
	}
	return robust.NewControl(ctx, o.Budget, met), cancel
}

// Trace is a hierarchical span recorder for one solve; create with
// NewTrace and pass via Options.Trace.
type Trace = obs.Trace

// Metrics is a registry of solver counters, gauges and histograms;
// create with NewMetrics and pass via Options.Metrics.
type Metrics = obs.Registry

// NewTrace returns an empty trace whose root span is named name
// ("solve" is conventional). Call Finish before rendering.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Solution is the result of Solve.
type Solution struct {
	// Schedule is the feasible schedule found.
	Schedule *Schedule
	// Calibrations is the objective value len(Schedule.Calibrations).
	Calibrations int
	// MachinesUsed counts distinct machines with work or calibrations.
	MachinesUsed int
	// LongJobs and ShortJobs are the Definition 1 partition sizes.
	LongJobs, ShortJobs int
	// LowerBound is a combinatorial lower bound on OPT's calibrations
	// (work, cluster, and Lemma 18 interval bounds).
	LowerBound int
	// LPObjective is the long-window LP optimum (0 if no long jobs),
	// summed across time components when Parallelism decomposes the
	// instance; OPT on the long sub-instance is at least LPObjective/3.
	LPObjective float64
}

// Solve runs the full Fineman–Sheridan algorithm and returns a
// feasible schedule. It returns an error when the long-window LP
// proves the long jobs infeasible on 3m machines (which implies the
// instance is infeasible on m machines), or when the instance is
// malformed.
func Solve(inst *Instance, opts *Options) (*Solution, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	ctl, cancel := o.control()
	defer cancel()
	res, err := core.Solve(inst, o.coreOptions(ctl))
	if err != nil {
		return nil, err
	}
	if o.LocalSearch {
		improved, ierr := improve.Run(inst, res.Schedule)
		if ierr != nil {
			return nil, ierr
		}
		res.Schedule = improved.Schedule
	}
	if o.CompactMachines {
		compacted, cerr := ise.Compact(inst, res.Schedule)
		if cerr != nil {
			return nil, cerr
		}
		res.Schedule = compacted
	}
	sol := &Solution{
		Schedule:     res.Schedule,
		Calibrations: res.Schedule.NumCalibrations(),
		MachinesUsed: res.Schedule.MachinesUsed(),
		LongJobs:     res.LongJobs,
		ShortJobs:    res.ShortJobs,
		LowerBound:   bounds.Calibrations(inst),
		LPObjective:  res.LPObjective,
	}
	return sol, nil
}

// ComponentReport describes how SolveRobust answered one time
// component: the rung that produced the schedule, the rungs that
// failed before it, and the component's bound certificates.
type ComponentReport = core.ComponentReport

// RobustSolution is the result of SolveRobust: a feasible schedule
// that is guaranteed to exist even under deadline or budget pressure,
// plus provenance saying how good it is and how it was obtained.
type RobustSolution struct {
	// Schedule is the feasible schedule found.
	Schedule *Schedule
	// Calibrations is the objective value (the certified upper bound).
	Calibrations int
	// MachinesUsed counts distinct machines with work or calibrations.
	// Degraded components may push this past inst.M: the ladder trades
	// machines, never feasibility.
	MachinesUsed int
	// Components is the number of independent time components solved.
	Components int
	// Degraded reports whether any component fell past its first rung;
	// DegradedComponents lists which (in component order).
	Degraded           bool
	DegradedComponents []int
	// Reports holds the per-component provenance, in component order.
	Reports []ComponentReport
	// Exact reports that every component was solved to proven
	// optimality, making Calibrations the true optimum.
	Exact bool
	// LowerBound is the combinatorial lower bound on OPT's
	// calibrations (as in Solution.LowerBound).
	LowerBound int
	// LadderLower sums the per-component certificates of the answering
	// rungs (exact optimum, or LP relaxation objective); components
	// answered by the heuristic rung contribute 0. It is a valid lower
	// bound on the optimal TISE calibration count under any
	// degradation.
	LadderLower float64
}

// RungSummary names the ladder rungs that answered, comma-joined and
// deduplicated in ladder order (e.g. "exact,lp"). The serving layer
// stamps it into each request's decision record.
func (r *RobustSolution) RungSummary() string {
	if r == nil {
		return ""
	}
	return (&core.RobustResult{Reports: r.Reports}).RungSummary()
}

// Falls flattens the failed rung attempts of every component into
// "rung:reason" tokens, in component order (empty when not degraded).
func (r *RobustSolution) Falls() []string {
	if r == nil {
		return nil
	}
	return (&core.RobustResult{Reports: r.Reports, Degraded: r.Degraded}).Falls()
}

// SolveRobust runs the pipeline with graceful degradation. The
// instance is decomposed into independent time components and each
// descends a ladder — exact branch-and-bound (small components only),
// the paper's LP pipeline, then the lazy heuristic — until a rung
// answers within its share of the remaining Timeout/Budget. The last
// rung runs unlimited, so SolveRobust returns a feasible schedule even
// when the deadline has already expired; only a hard Context
// cancellation (ErrCanceled) makes it give up. Every fallback is
// counted in the robust_fallback_total metric series.
func SolveRobust(inst *Instance, opts *Options) (*RobustSolution, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	ctl, cancel := o.control()
	defer cancel()
	res, err := core.SolveRobust(inst, core.RobustOptions{Options: o.coreOptions(ctl)})
	if err != nil {
		return nil, err
	}
	sched := res.Schedule
	if o.LocalSearch {
		improved, ierr := improve.Run(inst, sched)
		if ierr != nil {
			return nil, ierr
		}
		sched = improved.Schedule
	}
	if o.CompactMachines {
		compacted, cerr := ise.Compact(inst, sched)
		if cerr != nil {
			return nil, cerr
		}
		sched = compacted
	}
	sol := &RobustSolution{
		Schedule:     sched,
		Calibrations: sched.NumCalibrations(),
		MachinesUsed: sched.MachinesUsed(),
		Components:   res.Components,
		Degraded:     res.Degraded,
		Reports:      res.Reports,
		Exact:        res.Exact,
		LowerBound:   bounds.Calibrations(inst),
		LadderLower:  res.LowerBound,
	}
	for _, rep := range res.Reports {
		if len(rep.Attempts) > 0 {
			sol.DegradedComponents = append(sol.DegradedComponents, rep.Component)
		}
	}
	return sol, nil
}

// SpeedSolution is the result of SolveWithSpeed (Theorem 14).
type SpeedSolution struct {
	// Scaled is the instance the schedule is expressed in: every time
	// quantity of the input multiplied by 36 (the transformation needs
	// 2c | T with c = 18). It is equivalent to the input instance.
	Scaled *Instance
	// Schedule uses at most inst.M machines at Speed 36.
	Schedule *Schedule
	// Calibrations is the objective value.
	Calibrations int
}

// SolveWithSpeed solves a long-window-only instance with the paper's
// machines→speed transformation (Theorem 14): at most inst.M machines,
// each 36x faster, and at most 12 times the optimal number of
// calibrations. All jobs must have long windows (d_j - r_j >= 2T).
// ExactLP, Context, Timeout, Budget, Metrics and Trace apply as in
// Solve; the other options concern short-window jobs or the merged
// schedule and are ignored.
func SolveWithSpeed(inst *Instance, opts *Options) (*SpeedSolution, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	ctl, cancel := o.control()
	defer cancel()
	tr := o.Trace
	if tr == nil {
		tr = obs.DefaultTrace()
	}
	sp := tr.Root().Start("solve")
	defer sp.End()
	res, err := tise.SolveWithSpeed(inst, tise.Options{
		Engine:  o.coreOptions(ctl).Engine,
		Span:    sp,
		Metrics: o.Metrics,
		Control: ctl,
	})
	if err != nil {
		return nil, err
	}
	return &SpeedSolution{
		Scaled:       res.Scaled,
		Schedule:     res.Schedule,
		Calibrations: res.Schedule.NumCalibrations(),
	}, nil
}

// Validate checks full ISE feasibility of s for inst: every job placed
// exactly once inside its window, entirely within a calibration on its
// machine, with no job or calibration overlaps. It returns nil for
// feasible schedules and a descriptive error otherwise.
func Validate(inst *Instance, s *Schedule) error { return ise.Validate(inst, s) }

// LowerBound returns the best available combinatorial lower bound on
// the optimal number of calibrations for inst.
func LowerBound(inst *Instance) int { return bounds.Calibrations(inst) }

// Compact recolors a feasible schedule onto the fewest machines its
// calibrations allow, preserving all times and the calibration count.
func Compact(inst *Instance, s *Schedule) (*Schedule, error) { return ise.Compact(inst, s) }

// Improve runs calibration-elimination local search on a feasible
// unit-speed schedule: jobs of lightly loaded calibrations are
// relocated into other calibrations' free space and emptied
// calibrations are dropped. The result is feasible and never has more
// calibrations than the input.
func Improve(inst *Instance, s *Schedule) (*Schedule, error) {
	res, err := improve.Run(inst, s)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// SolveExact finds a provably minimum-calibration schedule on inst.M
// machines by branch and bound. Exponential time: intended for small
// instances (n up to ~8). maxNodes = 0 uses a default cap; see
// internal/exact for semantics when the cap is hit.
func SolveExact(inst *Instance, maxNodes int) (*Schedule, int, error) {
	res, err := exact.Solve(inst, exact.Options{MaxNodes: maxNodes})
	if err != nil {
		return nil, 0, err
	}
	return res.Schedule, res.Calibrations, nil
}

// SolveLazy runs the practical greedy heuristic (beyond the paper):
// jobs in deadline order, fitted into existing calibrations' free
// space, with new calibrations opened as late as the deadline allows.
// No approximation guarantee, but fast and frugal with machines; pass
// maxMachines = 0 to let it use as many machines as it needs.
func SolveLazy(inst *Instance, maxMachines int) (*Schedule, error) {
	return heur.Lazy(inst, heur.Options{MaxMachines: maxMachines})
}

// SolveOnline schedules the instance with the online lazy policy
// (extension beyond the paper): jobs are revealed at their release
// times, decisions are irrevocable, and calibrations can only start at
// or after the decision moment. Always feasible; experiment T14
// measures the premium over offline scheduling.
func SolveOnline(inst *Instance) (*Schedule, error) { return online.Lazy(inst) }

// LazyBinning runs the unit-job baseline from Bender et al. (SPAA
// 2013): optimal on a single machine, a greedy 2-approximation-style
// baseline on several. All jobs must have Processing == 1.
func LazyBinning(inst *Instance) (*Schedule, error) { return unitise.LazyBinning(inst) }

// NaiveGrid runs the always-calibrated straw man: every machine
// calibrated back-to-back across the whole horizon, jobs EDF-filled.
// Useful as the "what if we never stopped calibrating" comparison.
func NaiveGrid(inst *Instance) (*Schedule, error) { return unitise.NaiveGrid(inst) }
