package failure

import (
	"context"
	"errors"
	"testing"

	"sparseorder/internal/admit"
)

// TestGovernorRejectsOversized is ladder step 3: beyond the solo ceiling
// the matrix is rejected with ErrResourceBudget, which classifies as the
// non-retryable resource failure class.
func TestGovernorRejectsOversized(t *testing.T) {
	g := admit.NewGovernor(100, nil)
	_, err := g.Acquire(context.Background(), "huge", 201, false)
	if !errors.Is(err, admit.ErrResourceBudget) {
		t.Fatalf("err = %v, want ErrResourceBudget", err)
	}
	if got := Classify(err); got != FailResource {
		t.Errorf("Classify = %s, want %s", got, FailResource)
	}
	if FailResource.Retryable() {
		t.Error("resource failures must not be retryable")
	}
}
