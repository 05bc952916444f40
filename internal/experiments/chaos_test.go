package experiments

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/failure"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
)

// chaosReorderRules is the seeded fault schedule the soak runs under:
// ordering-phase errors at rates that leave the small set with a mix of
// injected failures and clean successes. The decisions are pure hashes of
// (seed, point, matrix shape), so every run — baseline, killed, resumed —
// sees the identical schedule.
func chaosReorderRules() []faultinject.Rule {
	return []faultinject.Rule{
		{Point: faultinject.ReorderOrder, Mode: faultinject.ModeError, Rate: 0.3},
		{Point: faultinject.ReorderGraph, Mode: faultinject.ModeError, Rate: 0.2},
	}
}

func armChaos(extra ...faultinject.Rule) {
	rules := append(chaosReorderRules(), extra...)
	faultinject.Activate(faultinject.NewPlan(7, rules...))
}

// TestChaosSoakJournalFaultResumeByteIdentical is the chaos acceptance
// test for the PR 3 durability contract under injected faults: a study
// whose checkpoint dies mid-run (injected journal-sync failure) must abort
// run-fatally, leave a loadable journal, and — resumed under the same
// fault schedule with the journal fault disarmed — reproduce the
// uninterrupted run byte for byte. The whole soak must not leak
// goroutines.
func TestChaosSoakJournalFaultResumeByteIdentical(t *testing.T) {
	ms := smallSet()
	cfg := journalConfig()
	t.Cleanup(faultinject.Deactivate)
	before := runtime.NumGoroutine()

	// Baseline: an uninterrupted run under the reorder fault schedule.
	armChaos()
	base, err := RunStudyMatrices(context.Background(), cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Failures) == 0 || len(base.Matrices) == 0 {
		t.Fatalf("schedule must split the set: %d results, %d failures — retune the rates",
			len(base.Matrices), len(base.Failures))
	}
	for i := range base.Failures {
		if c := base.Failures[i].Class; c != failure.FailError {
			t.Errorf("%s: injected failure classed %s, want error", base.Failures[i].Name, c)
		}
	}
	if fired := faultinject.Fired(); fired[faultinject.ReorderOrder]+fired[faultinject.ReorderGraph] == 0 {
		t.Fatal("no reorder faults fired; the soak is not exercising anything")
	}

	// Killed run: the same schedule plus a journal-sync fault that fires
	// from the third append on. The runner must declare the checkpoint
	// untrustworthy and abort with the injected error.
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	armChaos(faultinject.Rule{
		Point: faultinject.JournalSync, Mode: faultinject.ModeENOSPC, Rate: 1, After: 2,
	})
	killed := cfg
	killed.Journal = j
	if _, err := RunStudyMatrices(context.Background(), killed, ms); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("killed run: err = %v, want the injected journal failure to be run-fatal", err)
	}
	j.Close() // the file itself is healthy; only injected syncs failed

	// Resume: journal fault disarmed, reorder schedule unchanged. At least
	// the two records synced before the fault are reused; records whose
	// write landed but whose sync failed may legitimately survive too (they
	// hold genuine outcomes — only their durability was unproven). Whatever
	// subset is present, the resumed run must land on exactly the baseline
	// outcome.
	armChaos()
	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatalf("journal not loadable after the injected crash: %v", err)
	}
	if n := j2.Len(); n < 2 || n > len(ms) {
		t.Fatalf("journal holds %d records, want 2..%d", n, len(ms))
	}
	resumed := cfg
	resumed.Journal = j2
	res, err := RunStudyMatrices(context.Background(), resumed, ms)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-identity, matrix by matrix and artifact by artifact.
	if len(res.Matrices) != len(base.Matrices) || len(res.Failures) != len(base.Failures) {
		t.Fatalf("resumed: %d results %d failures, want %d and %d",
			len(res.Matrices), len(res.Failures), len(base.Matrices), len(base.Failures))
	}
	for i := range base.Matrices {
		a, b := base.Matrices[i], res.Matrices[i]
		if a.Name != b.Name {
			t.Fatalf("result %d is %s, want %s", i, b.Name, a.Name)
		}
	}
	for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
		var want, got bytes.Buffer
		mc := machine.Table2[0].Name
		if err := WriteArtifactFile(&want, base, mc, k); err != nil {
			t.Fatal(err)
		}
		if err := WriteArtifactFile(&got, res, mc, k); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("artifact file for %s/%v differs after the faulted resume", mc, k)
		}
	}
	var want, got bytes.Buffer
	if err := WriteFailureReport(&want, base.Failures); err != nil {
		t.Fatal(err)
	}
	if err := WriteFailureReport(&got, res.Failures); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("failures.txt differs after the faulted resume:\n%s\nvs\n%s", want.String(), got.String())
	}

	// No goroutine leaks across the whole soak (AfterFunc watchers, pool
	// workers, telemetry). Allow the runtime a moment to retire exiting
	// goroutines.
	faultinject.Deactivate()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before the soak, %d after", before, g)
	}
}

// TestChaosGovernedStudyUnderFaults combines the governor with the fault
// schedule: an impossible per-matrix budget plus injected reorder faults
// must yield only clean resource skips — the admission rejection happens
// before any ordering runs, the journal records class resource, and a
// resume re-evaluates nothing.
func TestChaosGovernedStudyUnderFaults(t *testing.T) {
	ms := smallSet()
	cfg := journalConfig()
	cfg.MemBudget = 1
	t.Cleanup(faultinject.Deactivate)
	armChaos()

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	run.Journal = j
	s, err := RunStudyMatrices(context.Background(), run, ms)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(s.Failures) != len(ms) {
		t.Fatalf("%d failures, want all %d skipped", len(s.Failures), len(ms))
	}
	for i := range s.Failures {
		f := &s.Failures[i]
		if f.Class != failure.FailResource || f.Attempts != 1 {
			t.Errorf("%s: class %s attempts %d, want resource/1", f.Name, f.Class, f.Attempts)
		}
	}
	if fired := faultinject.Fired(); fired[faultinject.ReorderOrder]+fired[faultinject.ReorderGraph] != 0 {
		t.Error("reorder faults fired for matrices the governor rejected before evaluation")
	}

	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(ms) {
		t.Fatalf("journal holds %d records, want %d resource skips", j2.Len(), len(ms))
	}
}

// TestChaosRetryPromotesToSolo checks ladder step 2 end to end: a matrix
// whose first attempt fails retryably under an active governor re-enters
// admission solo, draining the pool for its retry.
func TestChaosRetryPromotesToSolo(t *testing.T) {
	m := smallSet()[0]
	cfg := journalConfig()
	cfg.Retries = 1
	cfg.RetryBackoff = time.Millisecond
	cfg.RetryBackoffMax = time.Millisecond
	gov := admit.NewGovernor(1<<20, nil) // the matrix fits; only the retry degrades
	var calls int
	var soloLogged bool
	logf := func(format string, args ...any) {
		if strings.Contains(format, "admitted solo") {
			soloLogged = true
		}
	}
	eval := func(ctx context.Context, mm gen.Matrix, c Config) (*MatrixResult, error) {
		calls++
		if calls == 1 {
			panic("transient wobble")
		}
		return &MatrixResult{Name: mm.Name}, nil
	}
	r, attempts, err := evaluateWithRetry(context.Background(), m, cfg, gov, 100, eval, logf)
	if err != nil || r == nil {
		t.Fatalf("retry did not recover: r=%v err=%v", r, err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if !soloLogged {
		t.Error("the retry was not promoted to a solo admission")
	}
}
