package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/failure"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
)

// MatrixError records the failure of one matrix's evaluation. Ordering is
// the algorithm whose computation or application failed when the failure
// is ordering-specific; for whole-matrix failures (panic, timeout,
// cancellation) it is empty.
type MatrixError struct {
	Name     string
	Ordering reorder.Algorithm
	Err      error
	// Class is the failure class Classify assigned to Err.
	Class failure.FailureClass
	// Attempts is how many evaluation attempts were made (≥1); values
	// above one mean retries were exhausted without success.
	Attempts int
}

// Error formats the failure as "name: ordering: cause".
func (e *MatrixError) Error() string {
	if e.Ordering != "" {
		return fmt.Sprintf("%s: %s: %v", e.Name, e.Ordering, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Name, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *MatrixError) Unwrap() error { return e.Err }

// evalFunc is the per-matrix evaluation the runner drives; tests inject
// failing and panicking variants to exercise the isolation guarantees.
type evalFunc func(context.Context, gen.Matrix, Config) (*MatrixResult, error)

// RunStudy evaluates the whole synthetic collection. It sets the machine
// model's cache scaling to match the collection scale (see
// machine.CacheScaleFor) so the cache-pressure regime mirrors the paper's.
func RunStudy(cfg Config) (*StudyResult, error) {
	return RunStudyContext(context.Background(), cfg)
}

// RunStudyContext is RunStudy with cancellation: cancelling the context
// stops the study and returns the context's error. Matrices are evaluated
// concurrently by cfg.Workers workers; each matrix that fails — by error,
// by panic, or by exceeding cfg.Timeout — is recorded in
// StudyResult.Failures without affecting any other matrix, so one
// pathological matrix can never abort the run.
func RunStudyContext(ctx context.Context, cfg Config) (*StudyResult, error) {
	return runStudy(ctx, cfg, gen.Collection(cfg.Scale, cfg.Seed), EvaluateMatrixContext)
}

// RunStudyMatrices evaluates an explicit matrix list instead of the
// generated collection — the entry point for user-supplied (e.g. Matrix
// Market) corpora. It applies the same cache scaling, concurrency and
// failure isolation as RunStudyContext; results preserve input order.
func RunStudyMatrices(ctx context.Context, cfg Config, matrices []gen.Matrix) (*StudyResult, error) {
	return runStudy(ctx, cfg, matrices, EvaluateMatrixContext)
}

// runStudy is the shared bounded worker pool. Determinism: each matrix's
// result is stored at its collection index as it completes, and the final
// Matrices/Failures slices are assembled in index order after all workers
// drain, so the output is identical for any worker count (the per-matrix
// evaluation itself does not depend on the other matrices).
func runStudy(ctx context.Context, cfg Config, coll []gen.Matrix, eval evalFunc) (*StudyResult, error) {
	cfg = cfg.withDefaults()
	machine.CacheScale = machine.CacheScaleFor(cfg.Scale.Factor())

	// Attach the observability sinks to the evaluation context so every
	// layer below (study orderings, reorder phases, partitioner levels)
	// reports through them. With cfg.Obs nil this is a no-op and the whole
	// instrumented stack stays on its zero-allocation disabled path.
	o := cfg.Obs
	ctx = obs.NewContext(ctx, o)
	tel := newRunTelemetry(o)

	// The governor admits matrices against the memory budget; nil (no
	// budget configured or detected) admits everything with no locking.
	gov := admit.NewGovernor(cfg.MemBudget, cfg.Obs)
	if gov != nil {
		cfg.Logf("memory governor: budget %s, solo ceiling %s",
			admit.FormatBytes(gov.Budget()), admit.FormatBytes(gov.SoloCap()))
	}

	// Journal append failures are run-fatal — a silently failing disk must
	// not masquerade as a healthy checkpoint. The first one cancels runCtx
	// so in-flight matrices stop promptly, and is returned once the pool
	// drains; matrices journaled before the failure remain resumable.
	runCtx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)
	var journalErr error // guarded by mu

	results := make([]*MatrixResult, len(coll))
	failures := make([]*MatrixError, len(coll))

	// Resume: matrices already journaled are pre-filled at their collection
	// index and never re-scheduled, so a resumed run assembles the exact
	// StudyResult an uninterrupted run would have produced.
	pending := make([]int, 0, len(coll))
	for i, m := range coll {
		if cfg.Journal != nil {
			if r, f, ok := cfg.Journal.Lookup(m.Name); ok {
				if r != nil {
					results[i] = r
				} else {
					failures[i] = f
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	skipped := len(coll) - len(pending)
	if skipped > 0 {
		cfg.Logf("resuming: %d/%d matrices already journaled, %d to run",
			skipped, len(coll), len(pending))
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	tel.runStart(len(pending), skipped, workers)

	var (
		mu        sync.Mutex // guards the progress counters and serialises Logf
		completed int
		failed    int
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		cfg.Logf(format, args...)
		mu.Unlock()
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker logger: new telemetry lines carry a "[wN]" prefix;
			// the historical progress lines below keep their exact format.
			wlogf := logf
			if o != nil && o.Log != nil {
				wlogf = o.Log.Worker(w).Infof
			}
			for idx := range jobs {
				m := coll[idx]
				var est int64
				if gov != nil && m.A != nil {
					est = admit.EstimateMatrixBytes(m.A.Rows, m.A.NNZ(), cfg.Orderings)
				}
				tel.startMatrix(w, m.Name)
				mctx, sp := obs.Start(runCtx, "study/matrix")
				sp.SetAttr("matrix", m.Name)
				sp.SetAttr("worker", fmt.Sprint(w))
				evalStart := time.Now()
				r, attempts, err := evaluateWithRetry(mctx, m, cfg, gov, est, eval, wlogf)
				sp.End()

				var me *MatrixError
				if err != nil {
					me = asMatrixError(m.Name, err, attempts)
				}
				// Journal the outcome before announcing it, so a crash after
				// the log line can never lose an announced matrix. Cancelled
				// matrices are deliberately not journaled: they were merely
				// in flight when the run stopped and must re-run on resume.
				if cfg.Journal != nil {
					tm := tel.journalPh.Start()
					var jerr error
					if me == nil {
						jerr = cfg.Journal.RecordResult(r)
					} else if me.Class != failure.FailCanceled {
						jerr = cfg.Journal.RecordFailure(me)
					}
					tm.Stop()
					if jerr != nil {
						logf("journal write for %s failed; aborting the run (the checkpoint can no longer be trusted): %v", m.Name, jerr)
						mu.Lock()
						if journalErr == nil {
							journalErr = jerr
						}
						mu.Unlock()
						cancelRun(jerr)
					}
				}
				tel.finishMatrix(w, m.Name, me, attempts, time.Since(evalStart).Seconds())

				mu.Lock()
				completed++
				if me != nil {
					failures[idx] = me
					failed++
					cfg.Logf("[%d/%d] %s FAILED (%s, attempt %d, %d failed so far): %v",
						completed, len(pending), m.Name, me.Class, me.Attempts, failed, err)
				} else {
					results[idx] = r
					cfg.Logf("[%d/%d] %s done (%d failed so far)",
						completed, len(pending), m.Name, failed)
				}
				mu.Unlock()
			}
		}(w)
	}

feed:
	for _, i := range pending {
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	tel.runEnd()

	mu.Lock()
	jfatal := journalErr
	mu.Unlock()
	if jfatal != nil {
		return nil, fmt.Errorf("experiments: journal append failed, run aborted (matrices journaled before the failure remain resumable): %w", jfatal)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &StudyResult{Config: cfg}
	for i := range coll {
		switch {
		case results[i] != nil:
			out.Matrices = append(out.Matrices, results[i])
		case failures[i] != nil:
			out.Failures = append(out.Failures, *failures[i])
		}
	}
	return out, nil
}

// evaluateWithRetry drives evaluateIsolated under the bounded-retry
// policy: retryable failures (timeout, panic) are re-attempted up to
// cfg.Retries additional times with a capped doubling backoff and
// deterministic seeded jitter, while deterministic errors and run
// cancellation fail immediately. Every attempt is admitted through the
// governor first; after a retryable failure under an active governor the
// next attempt is promoted to a solo admission (pool drained), the middle
// rung of the degradation ladder. It returns the attempt count alongside
// the final outcome.
func evaluateWithRetry(ctx context.Context, m gen.Matrix, cfg Config, gov *admit.Governor, est int64, eval evalFunc, logf func(string, ...any)) (*MatrixResult, int, error) {
	solo := false
	for attempt := 1; ; attempt++ {
		adm, aerr := gov.Acquire(ctx, m.Name, est, solo)
		if aerr != nil {
			// Either the run is stopping (context error, class canceled) or
			// the matrix can never fit the budget (ErrResourceBudget, class
			// resource): both are terminal for this matrix, neither retried.
			return nil, attempt, &MatrixError{Name: m.Name, Err: aerr}
		}
		if adm.Solo() {
			logf("%s admitted solo (est %s, budget %s): pool drained while it runs",
				m.Name, admit.FormatBytes(est), admit.FormatBytes(gov.Budget()))
		}
		r, err := evaluateIsolated(ctx, m, cfg, eval, logf)
		adm.Release()
		if err == nil {
			return r, attempt, nil
		}
		class := failure.Classify(err)
		if !class.Retryable() || attempt > cfg.Retries {
			return nil, attempt, err
		}
		if gov != nil && !solo {
			solo = true
		}
		backoff := retryDelay(cfg.RetryBackoff, cfg.RetryBackoffMax, cfg.Seed, m.Name, attempt)
		logf("%s attempt %d failed (%s), retrying in %v", m.Name, attempt, class, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			// The run is stopping; report the original failure unchanged.
			return nil, attempt, err
		}
	}
}

// retryDelay computes the pause after the attempt-th failed attempt: the
// doubling backoff base·2^(attempt-1) capped at max, then scaled into
// [cap/2, cap) by a jitter factor that is a pure hash of (seed, matrix
// name, attempt). The jitter decorrelates a batch of matrices that all
// failed the same way (e.g. a timeout burst under memory pressure) so
// their retries do not land in lockstep, while staying deterministic:
// rerunning the study reproduces the identical schedule.
func retryDelay(base, max time.Duration, seed int64, name string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	h := uint64(seed)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h ^= uint64(attempt)
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	frac := float64(h>>11) / (1 << 53) // uniform [0, 1)
	return d/2 + time.Duration(frac*float64(d/2))
}

// evaluateIsolated runs one matrix's evaluation with the per-matrix
// timeout applied and any panic converted into an error, so a
// pathological matrix cannot kill its worker (a panic escaping a
// goroutine would terminate the whole process). The start-of-matrix log
// runs inside the recovery scope too: it touches the matrix (a nil or
// corrupt CSR panics right there) and must be isolated the same way.
func evaluateIsolated(ctx context.Context, m gen.Matrix, cfg Config, eval evalFunc, logf func(string, ...any)) (res *MatrixResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &failure.PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	logf("evaluating %s (%d rows, %d nnz)", m.Name, m.A.Rows, m.A.NNZ())
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	return eval(ctx, m, cfg)
}

// asMatrixError normalises any evaluation error to a classified
// MatrixError record carrying the attempt count.
func asMatrixError(name string, err error, attempts int) *MatrixError {
	var me *MatrixError
	if !errors.As(err, &me) {
		me = &MatrixError{Name: name, Err: err}
	}
	me.Class = failure.Classify(err)
	me.Attempts = attempts
	return me
}
