package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparseorder/internal/failure"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
)

// journalConfig is the configuration all journal tests share; matching
// matters because the header binds the journal to it.
func journalConfig() Config {
	return Config{Scale: gen.ScaleTest, Seed: 7, Workers: 2}
}

// TestJournalRoundTrip records results and a failure, reloads the journal,
// and checks every record comes back bit-identical.
func TestJournalRoundTrip(t *testing.T) {
	cfg := journalConfig()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunStudyMatrices(context.Background(), cfg, smallSet()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Matrices {
		if err := j.RecordResult(r); err != nil {
			t.Fatal(err)
		}
	}
	fail := &MatrixError{Name: "gX", Ordering: "RCM", Err: errors.New("boom"),
		Class: failure.FailError, Attempts: 1}
	if err := j.RecordFailure(fail); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("journal holds %d records, want 3", j2.Len())
	}
	for _, r := range s.Matrices {
		got, _, ok := j2.Lookup(r.Name)
		if !ok || got == nil {
			t.Fatalf("journal lost result %s", r.Name)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("result %s did not round-trip bit-identically", r.Name)
		}
	}
	_, gotFail, ok := j2.Lookup("gX")
	if !ok || gotFail == nil {
		t.Fatal("journal lost the failure record")
	}
	if gotFail.Class != failure.FailError || gotFail.Attempts != 1 ||
		gotFail.Ordering != "RCM" || gotFail.Err.Error() != "boom" {
		t.Errorf("failure round-trip = %+v", gotFail)
	}
	if _, _, ok := j2.Lookup("unknown"); ok {
		t.Error("Lookup found a matrix that was never recorded")
	}
}

// TestJournalRejectsMismatchedConfig checks that a journal written under
// one configuration cannot seed a run with another: stale journals are
// rejected, not merged.
func TestJournalRejectsMismatchedConfig(t *testing.T) {
	cfg := journalConfig()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	for name, other := range map[string]Config{
		"seed":    {Scale: cfg.Scale, Seed: cfg.Seed + 1},
		"scale":   {Scale: gen.ScaleStudy, Seed: cfg.Seed},
		"repeats": {Scale: cfg.Scale, Seed: cfg.Seed, Repeats: 3},
	} {
		if _, err := LoadJournal(path, other); !errors.Is(err, ErrJournalMismatch) {
			t.Errorf("%s change: err = %v, want ErrJournalMismatch", name, err)
		}
	}
	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatalf("identical config rejected: %v", err)
	}
	j2.Close()
}

// TestJournalTruncatesPartialTail simulates a crash mid-append: the last
// line has no newline and must be dropped on load, while complete records
// survive. Appending after the load must produce a well-formed journal.
func TestJournalTruncatesPartialTail(t *testing.T) {
	cfg := journalConfig()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordFailure(&MatrixError{Name: "ok", Err: errors.New("x"),
		Class: failure.FailError, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"result","result":{"Name":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatalf("partial tail not tolerated: %v", err)
	}
	if j2.Len() != 1 {
		t.Fatalf("journal holds %d records after truncation, want 1", j2.Len())
	}
	if _, _, ok := j2.Lookup("torn"); ok {
		t.Error("the torn record was resurrected")
	}
	if err := j2.RecordFailure(&MatrixError{Name: "after", Err: errors.New("y"),
		Class: failure.FailError, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatalf("journal corrupt after truncate+append: %v", err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Fatalf("journal holds %d records, want 2", j3.Len())
	}
}

// TestJournalRejectsCorruptRecord checks that garbage in the middle of the
// journal (not a crash tail) is an error, not silently skipped.
func TestJournalRejectsCorruptRecord(t *testing.T) {
	cfg := journalConfig()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json\n")
	f.Close()
	if _, err := LoadJournal(path, cfg); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt record: err = %v", err)
	}
}

// TestRunStudyKillResumeByteIdentical is the durability acceptance test:
// a run killed partway through and resumed from its journal must produce
// the same StudyResult — and byte-identical artifact files — as a run
// that was never interrupted.
func TestRunStudyKillResumeByteIdentical(t *testing.T) {
	ms := smallSet()
	cfg := journalConfig()

	base, err := RunStudyMatrices(context.Background(), cfg, ms)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: kill the run (cancel the context) once two matrices have
	// completed and been journaled.
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		r, err := EvaluateMatrixContext(ctx, m, c)
		if err == nil && done.Add(1) == 2 {
			cancel()
		}
		return r, err
	}
	killed := cfg
	killed.Journal = j
	if _, err := runStudy(ctx, killed, ms, eval); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want context.Canceled", err)
	}
	j.Close()

	// Phase 2: resume from the journal and run to completion.
	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded := j2.Len()
	if recorded < 2 || recorded >= len(ms) {
		t.Fatalf("journal recorded %d matrices before the kill, want 2..%d", recorded, len(ms)-1)
	}
	resumedCfg := cfg
	resumedCfg.Journal = j2
	resumed, err := RunStudyMatrices(context.Background(), resumedCfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// The deterministic payload must be bit-identical matrix by matrix
	// (wall-clock reorder timings legitimately differ between runs).
	if len(resumed.Matrices) != len(base.Matrices) || len(resumed.Failures) != len(base.Failures) {
		t.Fatalf("resumed: %d results %d failures, want %d and %d",
			len(resumed.Matrices), len(resumed.Failures), len(base.Matrices), len(base.Failures))
	}
	for i := range base.Matrices {
		a, b := base.Matrices[i], resumed.Matrices[i]
		if a.Name != b.Name {
			t.Fatalf("result %d is %s, want %s", i, b.Name, a.Name)
		}
		if !reflect.DeepEqual(a.Perf, b.Perf) {
			t.Errorf("%s: Perf differs after resume", a.Name)
		}
		if !reflect.DeepEqual(a.Features, b.Features) {
			t.Errorf("%s: Features differ after resume", a.Name)
		}
		if !reflect.DeepEqual(a.FillRatio, b.FillRatio) {
			t.Errorf("%s: FillRatio differs after resume", a.Name)
		}
	}

	// Artifact files are rendered purely from the deterministic payload and
	// must match byte for byte.
	for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
		var want, got bytes.Buffer
		mc := machine.Table2[0].Name
		if err := WriteArtifactFile(&want, base, mc, k); err != nil {
			t.Fatal(err)
		}
		if err := WriteArtifactFile(&got, resumed, mc, k); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("artifact file for %s/%v differs after resume", mc, k)
		}
	}
	var want, got bytes.Buffer
	if err := WriteFailureReport(&want, base.Failures); err != nil {
		t.Fatal(err)
	}
	if err := WriteFailureReport(&got, resumed.Failures); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("failures.txt differs after resume:\n%s\nvs\n%s", want.String(), got.String())
	}
}

// TestRunStudyResumeSkipsJournaledFailures checks that journaled terminal
// failures are reused on resume (the matrix is not re-evaluated) while a
// cancellation-class failure is never journaled in the first place.
func TestRunStudyResumeSkipsJournaledFailures(t *testing.T) {
	ms := smallSet()
	cfg := journalConfig()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("deterministic failure")
	var calls atomic.Int32
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		calls.Add(1)
		if m.Name == "g1" {
			return nil, &MatrixError{Name: m.Name, Err: boom}
		}
		return &MatrixResult{Name: m.Name}, nil
	}
	run1 := cfg
	run1.Journal = j
	s1, err := runStudy(context.Background(), run1, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Failures) != 1 || s1.Failures[0].Class != failure.FailError {
		t.Fatalf("run1 failures = %+v", s1.Failures)
	}
	j.Close()

	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(ms) {
		t.Fatalf("journal holds %d records, want %d (failures must be journaled too)", j2.Len(), len(ms))
	}
	calls.Store(0)
	run2 := cfg
	run2.Journal = j2
	s2, err := runStudy(context.Background(), run2, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("resume re-evaluated %d matrices, want 0", calls.Load())
	}
	if len(s2.Matrices) != 3 || len(s2.Failures) != 1 {
		t.Fatalf("resume: %d results, %d failures", len(s2.Matrices), len(s2.Failures))
	}
	if f := s2.Failures[0]; f.Name != "g1" || f.Class != failure.FailError || f.Err.Error() != s1.Failures[0].Err.Error() {
		t.Errorf("resumed failure = %+v", f)
	}
}

// TestRunStudyRetriesRetryableFailures checks the bounded-retry policy:
// panics retry and can succeed, deterministic errors do not retry, and
// retries stop at the configured bound.
func TestRunStudyRetriesRetryableFailures(t *testing.T) {
	ms := smallSet()
	var g2Calls, g1Calls atomic.Int32
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		switch m.Name {
		case "g2": // transient: panics once, then succeeds
			if g2Calls.Add(1) == 1 {
				panic("transient wobble")
			}
			return &MatrixResult{Name: m.Name}, nil
		case "g1": // deterministic error: must not be retried
			g1Calls.Add(1)
			return nil, &MatrixError{Name: m.Name, Err: errors.New("always broken")}
		}
		return &MatrixResult{Name: m.Name}, nil
	}
	cfg := Config{Workers: 2, Retries: 2, RetryBackoff: time.Millisecond}
	s, err := runStudy(context.Background(), cfg, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if g2Calls.Load() != 2 {
		t.Errorf("g2 evaluated %d times, want 2 (one retry)", g2Calls.Load())
	}
	if g1Calls.Load() != 1 {
		t.Errorf("g1 evaluated %d times, want 1 (errors are not retryable)", g1Calls.Load())
	}
	if len(s.Matrices) != 3 || len(s.Failures) != 1 {
		t.Fatalf("%d results, %d failures", len(s.Matrices), len(s.Failures))
	}
	if f := s.Failures[0]; f.Name != "g1" || f.Class != failure.FailError || f.Attempts != 1 {
		t.Errorf("failure = %+v", f)
	}

	// A matrix that keeps panicking exhausts the retry budget.
	var calls atomic.Int32
	evalAlways := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		if m.Name == "g0" {
			calls.Add(1)
			panic("forever broken")
		}
		return &MatrixResult{Name: m.Name}, nil
	}
	s2, err := runStudy(context.Background(), cfg, ms, evalAlways)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("g0 evaluated %d times, want 3 (Retries=2)", calls.Load())
	}
	if len(s2.Failures) != 1 {
		t.Fatalf("%d failures, want 1", len(s2.Failures))
	}
	if f := s2.Failures[0]; f.Class != failure.FailPanic || f.Attempts != 3 {
		t.Errorf("failure = class %s attempts %d, want panic/3", f.Class, f.Attempts)
	}
}

// TestRunStudyTimeoutInterruptsRealOrdering drives the full evaluation
// pipeline (not an injected eval) against a matrix whose orderings take far
// longer than Config.Timeout. The cancellation checks inside the ordering
// loops must surface a timeout-class failure promptly instead of letting
// the wedged ordering run to completion.
func TestRunStudyTimeoutInterruptsRealOrdering(t *testing.T) {
	ms := []gen.Matrix{
		{Name: "slow", Group: "mesh", Kind: "fem-2d", SPD: true, A: gen.Grid2D(150, 150)},
	}
	cfg := Config{Scale: gen.ScaleTest, Seed: 7, Workers: 1, Timeout: 40 * time.Millisecond}
	start := time.Now()
	s, err := RunStudyMatrices(context.Background(), cfg, ms)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// A generous bound: the 22.5k-vertex grid's full evaluation takes far
	// longer than this, so finishing quickly proves the interrupt works.
	if elapsed > 10*time.Second {
		t.Errorf("evaluation ran %v after a %v timeout", elapsed, cfg.Timeout)
	}
	if len(s.Failures) != 1 {
		t.Fatalf("%d results, %d failures, want the matrix to time out",
			len(s.Matrices), len(s.Failures))
	}
	if f := s.Failures[0]; f.Name != "slow" || f.Class != failure.FailTimeout {
		t.Errorf("failure = name %s class %s, want slow/timeout", f.Name, f.Class)
	}
}

// TestClassify pins the failure taxonomy.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want failure.FailureClass
	}{
		{errors.New("x"), failure.FailError},
		{context.DeadlineExceeded, failure.FailTimeout},
		{context.Canceled, failure.FailCanceled},
		{&failure.PanicError{Value: "v", Stack: "s"}, failure.FailPanic},
		{&MatrixError{Name: "m", Err: context.DeadlineExceeded}, failure.FailTimeout},
		{&MatrixError{Name: "m", Err: &failure.PanicError{Value: "v"}}, failure.FailPanic},
	}
	for _, c := range cases {
		if got := failure.Classify(c.err); got != c.want {
			t.Errorf("failure.Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
	if failure.FailError.Retryable() || failure.FailCanceled.Retryable() {
		t.Error("error/canceled must not be retryable")
	}
	if !failure.FailTimeout.Retryable() || !failure.FailPanic.Retryable() {
		t.Error("timeout/panic must be retryable")
	}
}

// TestWriteFailureReport pins the failures.txt format.
func TestWriteFailureReport(t *testing.T) {
	var empty bytes.Buffer
	if err := WriteFailureReport(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "no failures\n" {
		t.Errorf("empty report = %q", empty.String())
	}
	var buf bytes.Buffer
	err := WriteFailureReport(&buf, []MatrixError{
		{Name: "m1", Ordering: "ND", Class: failure.FailTimeout, Attempts: 2, Err: context.DeadlineExceeded},
		{Name: "m2", Class: failure.FailPanic, Attempts: 1, Err: &failure.PanicError{Value: "boom", Stack: "goroutine 1\nmain.go:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"matrix: m1", "ordering: ND", "class: timeout", "attempts: 2",
		"matrix: m2", "ordering: -", "class: panic", "panic: boom", "goroutine 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("failures.txt missing %q:\n%s", want, out)
		}
	}
}
