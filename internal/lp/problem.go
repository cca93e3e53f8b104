// Package lp implements linear programming from scratch for the TISE
// relaxation of Fineman & Sheridan (SPAA 2015) and the time-indexed
// machine-minimization relaxation.
//
// Solve/SolveWith is the float engine: a two-phase revised simplex
// over float64 on a sparse LU basis factorization, with native
// variable upper bounds and warm starts from a previous basis.
// SolveRational is an exact simplex over math/big.Rat, used to
// cross-check the float engine (experiment T6) and behind exact-LP
// solves. SolveTableau, a dense float64 tableau, is kept only for
// mm.LPRound (see its comment).
//
// All variables are nonnegative; constraints may be <=, >= or =; the
// objective is always minimization (negate coefficients to maximize).
package lp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // a·x <= b
	GE            // a·x >= b
	EQ            // a·x == b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// CheckFunc is the engines' cancellation/budget hook. The pivot loops
// call it periodically with the work performed since the last call
// (one simplex pivot = one unit); a non-nil return aborts the solve,
// which then reports Status Aborted alongside that error. A nil
// CheckFunc means "never check" and costs nothing — the engines test
// the func for nil once, outside their hot loops.
//
// The hook deliberately has no context.Context in its signature: the
// lp package stays dependency-free, and the robust layer adapts its
// Control into this shape (see robust.Control.CheckFunc).
type CheckFunc func(work int) error

// Term is one coefficient of a constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type row struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a minimization LP over nonnegative variables, each with
// an optional finite upper bound. Build it with AddVar/AddConstraint
// (plus SetUpper for bounded variables) and pass it to Solve,
// SolveWith, or SolveRational.
type Problem struct {
	obj   []float64
	names []string
	rows  []row
	// upper[v] is the upper bound of variable v (+Inf when absent).
	// The float engine handles finite bounds natively in its ratio
	// test; the tableau and rational engines materialize them as rows.
	upper []float64
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a nonnegative variable with the given objective
// coefficient and returns its index. The name is used only for
// rendering; an empty name renders as x<index> (see Name), so hot
// builders need not format one per variable.
func (p *Problem) AddVar(name string, objCoeff float64) int {
	p.obj = append(p.obj, objCoeff)
	p.names = append(p.names, name)
	p.upper = append(p.upper, math.Inf(1))
	return len(p.obj) - 1
}

// SetUpper sets the upper bound of variable v (0 <= x_v <= u). A
// negative or NaN bound panics; +Inf removes the bound.
func (p *Problem) SetUpper(v int, u float64) {
	if v < 0 || v >= len(p.obj) {
		panic(fmt.Sprintf("lp: SetUpper on unknown variable %d", v))
	}
	if u < 0 || math.IsNaN(u) {
		panic(fmt.Sprintf("lp: SetUpper(%d, %v): bound must be >= 0", v, u))
	}
	p.upper[v] = u
}

// Upper returns the upper bound of variable v (+Inf when unbounded).
func (p *Problem) Upper(v int) float64 { return p.upper[v] }

// hasFiniteBounds reports whether any variable has a finite upper
// bound.
func (p *Problem) hasFiniteBounds() bool {
	for _, u := range p.upper {
		if !math.IsInf(u, 1) {
			return true
		}
	}
	return false
}

// withBoundRows returns p unchanged when no variable has a finite
// upper bound; otherwise it returns a copy in which every finite bound
// x_v <= u is materialized as an explicit LE row appended after the
// original rows. The int result is the original row count, so callers
// can trim bound-row duals.
func (p *Problem) withBoundRows() (*Problem, int) {
	m := len(p.rows)
	if !p.hasFiniteBounds() {
		return p, m
	}
	q := p.Copy()
	for v, u := range p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		q.upper[v] = math.Inf(1)
		q.AddConstraint(LE, u, Term{Var: v, Coeff: 1})
	}
	return q, m
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddConstraint adds the constraint sum(terms) rel rhs. Terms with a
// variable index out of range cause a panic; duplicate variables in one
// row are summed.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	own := make([]Term, len(terms))
	copy(own, terms)
	p.rows = append(p.rows, row{terms: own, rel: rel, rhs: rhs})
}

// SetRHS replaces the right-hand side of constraint row i. The row's
// terms and relation are untouched, so a Basis from a previous solve
// stays structurally valid — this is the cheap way to re-solve a
// family of problems differing only in rhs (e.g. machine-count
// probes).
func (p *Problem) SetRHS(i int, rhs float64) {
	if i < 0 || i >= len(p.rows) {
		panic(fmt.Sprintf("lp: SetRHS on unknown row %d", i))
	}
	p.rows[i].rhs = rhs
}

// Name returns the name of variable v, or x<v> when it was added
// without one.
func (p *Problem) Name(v int) string {
	if p.names[v] == "" {
		return "x" + strconv.Itoa(v)
	}
	return p.names[v]
}

// Obj returns the objective coefficient of variable v.
func (p *Problem) Obj(v int) float64 { return p.obj[v] }

// Copy returns a deep copy of the problem; constraints added to the
// copy do not affect the original (used by the branch-and-bound layer
// to encode variable bounds as extra rows).
func (p *Problem) Copy() *Problem {
	out := &Problem{
		obj:   append([]float64(nil), p.obj...),
		names: append([]string(nil), p.names...),
		rows:  make([]row, len(p.rows)),
		upper: append([]float64(nil), p.upper...),
	}
	for i, r := range p.rows {
		out.rows[i] = row{terms: append([]Term(nil), r.terms...), rel: r.rel, rhs: r.rhs}
	}
	return out
}

// String renders the problem in a compact algebraic form for debugging.
func (p *Problem) String() string {
	var b strings.Builder
	b.WriteString("min")
	for v, c := range p.obj {
		if c != 0 {
			fmt.Fprintf(&b, " %+g*%s", c, p.Name(v))
		}
	}
	b.WriteString("\n")
	for _, r := range p.rows {
		b.WriteString("  ")
		for i, t := range r.terms {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%+g*%s", t.Coeff, p.Name(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", r.rel, r.rhs)
	}
	for v, u := range p.upper {
		if !math.IsInf(u, 1) {
			fmt.Fprintf(&b, "  %s <= %g\n", p.Name(v), u)
		}
	}
	return b.String()
}

// Status reports the outcome of an LP solve.
type Status int

// Solve outcomes.
const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no nonnegative solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
	// IterLimit: the iteration cap was hit (should not happen with the
	// Bland fallback; indicates a numerical pathology).
	IterLimit
	// Aborted: a CheckFunc stopped the solve (cancellation, deadline,
	// or work-budget exhaustion). The engine returns the check's error
	// alongside this status.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status     Status
	Objective  float64
	X          []float64 // variable values; valid only when Status == Optimal
	Iterations int       // simplex pivots performed across both phases
	// Dual holds the dual value (shadow price) of each constraint row,
	// in input order; populated by the float engine when optimal.
	// Signs follow the minimization convention: for a binding <= row
	// the dual is <= 0 ... the test suite asserts weak duality and
	// complementary slackness rather than a sign convention.
	Dual []float64
	// Basis is the final simplex basis, populated by the float engine
	// only. Pass it back via Options.Warm to warm-start a
	// related solve (same variables, appended rows, or changed rhs).
	Basis *Basis
}
