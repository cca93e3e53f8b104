// Package robust is the solver's robustness layer: a structured error
// taxonomy with phase/component provenance, a cancellation-and-budget
// Control threaded through every long-running loop, panic containment
// for the decomposition pool, and the degradation ladder that turns a
// timed-out exact solve into a certified approximate answer instead of
// a dead request.
//
// The design follows the paper's own structure: the pipeline has exact
// optima for small instances, LP-certified approximations for large
// ones, and combinatorial heuristics below that (Theorems 1, 12, 14,
// 20) — a natural ladder where every rung is cheaper than the one
// above and still produces a feasibility-verified schedule. When a
// rung exhausts its slice of the deadline, its work budget, or panics,
// the next rung answers; the ladder records which rung did and why the
// upper ones did not.
package robust

import (
	"context"
	"errors"
	"fmt"
)

// The error taxonomy. Every failure escaping the solve pipeline wraps
// exactly one of these sentinels, so callers can dispatch with
// errors.Is regardless of which layer failed.
var (
	// ErrCanceled: the caller's context was canceled or its deadline
	// passed before the phase finished.
	ErrCanceled = errors.New("canceled")
	// ErrBudgetExhausted: the work budget (simplex pivots + search
	// nodes) ran out.
	ErrBudgetExhausted = errors.New("work budget exhausted")
	// ErrInfeasible: the phase proved (or conservatively reported) that
	// no feasible schedule exists within its machine bound.
	ErrInfeasible = errors.New("infeasible")
	// ErrNumeric: an LP solve ended without a verdict (iteration limit,
	// claimed unboundedness) — numerical trouble, not a property of the
	// instance.
	ErrNumeric = errors.New("numerical failure")
	// ErrPanic: a solver phase panicked; the panic was contained and
	// converted (see RecoverTo) so only the affected component fails.
	ErrPanic = errors.New("solver panic")
)

// Error is a taxonomy error with provenance: which sentinel Kind it
// is, which pipeline phase raised it, and which decomposition
// component it belongs to (-1 when the solve was not decomposed).
type Error struct {
	// Kind is one of the package sentinels; errors.Is(err, Kind) holds.
	Kind error
	// Phase names the pipeline stage: "lp", "exact", "mm",
	// "shortwin", "pool", ...
	Phase string
	// Component is the decomposition component index, -1 when not
	// applicable.
	Component int
	// Err is the underlying cause (a context error, an engine status,
	// a recovered panic value); may be nil.
	Err error
}

func (e *Error) Error() string {
	msg := e.Kind.Error()
	if e.Phase != "" {
		msg = e.Phase + ": " + msg
	}
	if e.Component >= 0 {
		msg = fmt.Sprintf("component %d: %s", e.Component, msg)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return "robust: " + msg
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Err }

// Is matches the sentinel Kind (and the usual unwrap chain via Err).
func (e *Error) Is(target error) bool { return target == e.Kind }

// Errf builds a taxonomy error. kind must be one of the sentinels.
func Errf(kind error, phase string, component int, cause error) *Error {
	return &Error{Kind: kind, Phase: phase, Component: component, Err: cause}
}

// Classify maps any error onto its taxonomy sentinel: taxonomy errors
// keep their Kind, bare context errors map to ErrCanceled, everything
// else (including nil) maps to nil.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrBudgetExhausted):
		return ErrBudgetExhausted
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ErrCanceled
	case errors.Is(err, ErrInfeasible):
		return ErrInfeasible
	case errors.Is(err, ErrPanic):
		return ErrPanic
	case errors.Is(err, ErrNumeric):
		return ErrNumeric
	default:
		return nil
	}
}

// Reason renders err as a short metric-label token: "canceled",
// "deadline", "budget", "infeasible", "numeric", "panic", or "error"
// for anything outside the taxonomy.
func Reason(err error) string {
	switch Classify(err) {
	case ErrBudgetExhausted:
		return "budget"
	case ErrCanceled:
		if errors.Is(err, context.DeadlineExceeded) {
			return "deadline"
		}
		return "canceled"
	case ErrInfeasible:
		return "infeasible"
	case ErrNumeric:
		return "numeric"
	case ErrPanic:
		return "panic"
	default:
		return "error"
	}
}

// Componentize stamps a component index onto err's provenance by
// wrapping. Errors already carrying a component keep it (the inner
// frame is closer to the fault); errors outside the taxonomy get a
// plain prefix wrap so their own type stays visible to errors.As.
func Componentize(err error, component int) error {
	if err == nil {
		return nil
	}
	var re *Error
	if errors.As(err, &re) && re.Component >= 0 {
		return err
	}
	if kind := Classify(err); kind != nil {
		return &Error{Kind: kind, Component: component, Err: err}
	}
	return fmt.Errorf("component %d: %w", component, err)
}
