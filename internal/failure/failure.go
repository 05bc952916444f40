// Package failure is the failure taxonomy shared by the study runner and
// the serving daemon: the class a failed evaluation or request falls in,
// which drives retries, journaling and the error class reported over HTTP.
package failure

import (
	"context"
	"errors"

	"sparseorder/internal/admit"
)

// FailureClass categorises why a matrix evaluation failed; it drives the
// retry policy and the failure report.
type FailureClass string

// The failure classes. Timeouts and panics are considered transient (a
// retry under less memory pressure or scheduler noise can succeed);
// cancellation means the whole run is stopping and is never retried or
// journaled; resource means the governor refused the matrix because its
// estimated working set can never fit the memory budget — deterministic
// for a given budget, so never retried, but journaled so resume skips it;
// everything else is a deterministic evaluation error that a retry would
// only repeat.
const (
	FailError    FailureClass = "error"
	FailTimeout  FailureClass = "timeout"
	FailCanceled FailureClass = "canceled"
	FailPanic    FailureClass = "panic"
	FailResource FailureClass = "resource"
)

// Retryable reports whether a bounded retry may be attempted for this
// class of failure.
func (c FailureClass) Retryable() bool { return c == FailTimeout || c == FailPanic }

// Classify maps an evaluation error to its failure class.
func Classify(err error) FailureClass {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, admit.ErrResourceBudget):
		return FailResource
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.Is(err, context.Canceled):
		return FailCanceled
	default:
		return FailError
	}
}

// PanicError is a recovered evaluation panic with its stack, preserved as
// a typed error so Classify can distinguish panics from ordinary errors.
type PanicError struct {
	Value string
	Stack string
}

// Error keeps the historical "panic: value\nstack" format.
func (e *PanicError) Error() string { return "panic: " + e.Value + "\n" + e.Stack }
