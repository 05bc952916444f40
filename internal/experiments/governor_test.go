package experiments

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/failure"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
)

// TestRetryDelay pins the capped-doubling-with-jitter schedule: pure in
// (seed, name, attempt), doubling until the cap, jittered into [d/2, d).
func TestRetryDelay(t *testing.T) {
	if d := retryDelay(0, time.Second, 7, "m", 3); d != 0 {
		t.Errorf("zero base: got %v", d)
	}
	a := retryDelay(100*time.Millisecond, 10*time.Second, 7, "m", 2)
	b := retryDelay(100*time.Millisecond, 10*time.Second, 7, "m", 2)
	if a != b {
		t.Errorf("retryDelay is not deterministic: %v vs %v", a, b)
	}
	// Attempt 2 doubles once: jittered into [100ms, 200ms).
	if a < 100*time.Millisecond || a >= 200*time.Millisecond {
		t.Errorf("attempt 2 delay %v outside [100ms, 200ms)", a)
	}
	// A huge attempt count must saturate at the cap, not overflow.
	c := retryDelay(100*time.Millisecond, time.Second, 7, "m", 500)
	if c < 500*time.Millisecond || c >= time.Second {
		t.Errorf("capped delay %v outside [500ms, 1s)", c)
	}
	// Jitter decorrelates matrices: not every name may land on the same
	// delay.
	names := []string{"m0", "m1", "m2", "m3", "m4"}
	distinct := map[time.Duration]bool{}
	for _, n := range names {
		distinct[retryDelay(100*time.Millisecond, 10*time.Second, 7, n, 2)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("jitter produced identical delays for %v", names)
	}
	// Seed sensitivity.
	if retryDelay(100*time.Millisecond, 10*time.Second, 7, "m", 2) ==
		retryDelay(100*time.Millisecond, 10*time.Second, 8, "m", 2) {
		t.Error("different seeds produced the same delay (suspicious)")
	}
}

// TestRunStudyResourceSkip drives the full runner with a budget no matrix
// can fit: every matrix must fail with class resource after one attempt,
// journal as a terminal failure, and be skipped (not re-evaluated) on
// resume.
func TestRunStudyResourceSkip(t *testing.T) {
	ms := smallSet()
	cfg := journalConfig()
	cfg.MemBudget = 1 // solo ceiling 2 bytes: nothing fits
	var calls atomic.Int32
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		calls.Add(1)
		return &MatrixResult{Name: m.Name}, nil
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run1 := cfg
	run1.Journal = j
	s, err := runStudy(context.Background(), run1, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if calls.Load() != 0 {
		t.Errorf("eval ran %d times under an impossible budget, want 0", calls.Load())
	}
	if len(s.Matrices) != 0 || len(s.Failures) != len(ms) {
		t.Fatalf("%d results, %d failures; want 0 and %d", len(s.Matrices), len(s.Failures), len(ms))
	}
	for i := range s.Failures {
		if f := &s.Failures[i]; f.Class != failure.FailResource || f.Attempts != 1 {
			t.Errorf("%s: class %s attempts %d, want resource/1", f.Name, f.Class, f.Attempts)
		}
	}

	// Resume: the journaled resource skips are terminal, never re-run.
	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(ms) {
		t.Fatalf("journal holds %d records, want %d", j2.Len(), len(ms))
	}
	run2 := cfg
	run2.Journal = j2
	run2.MemBudget = -1 // even with the governor off, journaled skips stand
	s2, err := runStudy(context.Background(), run2, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("resume re-evaluated %d matrices, want 0", calls.Load())
	}
	for i := range s2.Failures {
		if f := &s2.Failures[i]; f.Class != failure.FailResource {
			t.Errorf("resumed %s: class %s, want resource", f.Name, f.Class)
		}
	}
}

// TestRunStudySoloDegrade sizes the budget so the largest matrix in the
// set is over budget but under the solo ceiling: the run must complete
// with no failures and the degradation counter must record the solo
// admission.
func TestRunStudySoloDegrade(t *testing.T) {
	ms := smallSet()
	base := journalConfig()
	wd := base.withDefaults()
	var maxEst int64
	for _, m := range ms {
		if e := admit.EstimateMatrixBytes(m.A.Rows, m.A.NNZ(), wd.Orderings); e > maxEst {
			maxEst = e
		}
	}
	cfg := base
	cfg.MemBudget = maxEst - 1
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Obs{Metrics: reg}
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		return &MatrixResult{Name: m.Name}, nil
	}
	s, err := runStudy(context.Background(), cfg, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) != 0 || len(s.Matrices) != len(ms) {
		t.Fatalf("%d results, %d failures; want all %d to succeed", len(s.Matrices), len(s.Failures), len(ms))
	}
	degraded := reg.Counter("sparseorder_governor_degradations_total",
		"matrices degraded to a solo run with the pool drained").Value()
	if degraded == 0 {
		t.Error("no solo degradation recorded for the over-budget matrix")
	}
	admitted := reg.Counter("sparseorder_governor_admitted_bytes_total",
		"cumulative estimated bytes admitted into the pool").Value()
	if admitted == 0 {
		t.Error("admitted-bytes counter stayed zero")
	}
}
