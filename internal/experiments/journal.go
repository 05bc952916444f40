package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"sparseorder/internal/failure"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/fsutil"
	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
)

// journalVersion is bumped whenever the record layout changes; a version
// mismatch makes an old journal stale rather than silently misread.
const journalVersion = 1

// ErrJournalMismatch reports that an existing journal was written by a run
// with a different configuration (scale, seed, repeats, machine or
// ordering set) and therefore cannot seed this run. Stale journals are
// rejected, never merged.
var ErrJournalMismatch = errors.New("experiments: journal does not match the run configuration")

// journalHeader is the first record of every journal; it binds the file to
// the exact configuration whose results it holds.
type journalHeader struct {
	Kind        string   `json:"kind"`
	Version     int      `json:"version"`
	Scale       int      `json:"scale"`
	Seed        int64    `json:"seed"`
	Repeats     int      `json:"repeats"`
	HostThreads int      `json:"hostThreads"`
	Machines    []string `json:"machines"`
	Orderings   []string `json:"orderings"`
}

func headerFor(cfg Config) journalHeader {
	cfg = cfg.withDefaults()
	h := journalHeader{
		Kind:        "header",
		Version:     journalVersion,
		Scale:       int(cfg.Scale),
		Seed:        cfg.Seed,
		Repeats:     cfg.Repeats,
		HostThreads: cfg.HostThreads,
	}
	for _, m := range cfg.Machines {
		h.Machines = append(h.Machines, m.Name)
	}
	for _, o := range cfg.Orderings {
		h.Orderings = append(h.Orderings, string(o))
	}
	return h
}

func (h journalHeader) matches(o journalHeader) bool {
	if h.Kind != o.Kind || h.Version != o.Version || h.Scale != o.Scale ||
		h.Seed != o.Seed || h.Repeats != o.Repeats || h.HostThreads != o.HostThreads ||
		len(h.Machines) != len(o.Machines) || len(h.Orderings) != len(o.Orderings) {
		return false
	}
	for i := range h.Machines {
		if h.Machines[i] != o.Machines[i] {
			return false
		}
	}
	for i := range h.Orderings {
		if h.Orderings[i] != o.Orderings[i] {
			return false
		}
	}
	return true
}

// journalFailure is the serialisable form of a MatrixError.
type journalFailure struct {
	Name     string               `json:"name"`
	Ordering reorder.Algorithm    `json:"ordering,omitempty"`
	Class    failure.FailureClass `json:"class"`
	Attempts int                  `json:"attempts"`
	Message  string               `json:"message"`
}

// journalRecord is one JSONL line after the header: a completed matrix
// result or a terminal (non-cancellation) failure.
type journalRecord struct {
	Kind    string          `json:"kind"`
	Result  *MatrixResult   `json:"result,omitempty"`
	Failure *journalFailure `json:"failure,omitempty"`
}

// Journal is a crash-safe per-matrix result log. Every completed matrix is
// appended as one JSON line and fsynced before the runner moves on, so a
// killed run loses at most the matrix that was in flight. A journal is
// bound to its Config by the header record; reloading it under a different
// configuration fails with ErrJournalMismatch.
//
// encoding/json renders float64 values in their shortest exact form, so a
// result that round-trips through the journal is bit-identical to the
// original — the foundation of the resume-determinism guarantee.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	results  map[string]*MatrixResult
	failures map[string]*MatrixError
}

// CreateJournal starts a fresh journal at path for the given configuration,
// truncating any existing file. The header is written atomically (temp file
// + rename), so a crash during creation leaves either no journal or a
// well-formed one-record journal, never a torn header.
func CreateJournal(path string, cfg Config) (*Journal, error) {
	line, err := json.Marshal(headerFor(cfg))
	if err != nil {
		return nil, err
	}
	if err := fsutil.WriteFileAtomic(path, append(line, '\n'), 0o644); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{
		f:        f,
		path:     path,
		results:  map[string]*MatrixResult{},
		failures: map[string]*MatrixError{},
	}, nil
}

// LoadJournal opens an existing journal for resuming. The header must match
// cfg exactly (ErrJournalMismatch otherwise). A partial trailing line —
// the signature of a crash mid-append — is truncated away; anything else
// that fails to parse is corruption and an error. The returned journal is
// positioned for further appends.
func LoadJournal(path string, cfg Config) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		path:     path,
		results:  map[string]*MatrixResult{},
		failures: map[string]*MatrixError{},
	}

	validLen := 0
	first := true
	for len(data[validLen:]) > 0 {
		rest := data[validLen:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// No terminating newline: a crash interrupted the last append.
			// Drop the fragment; the matrix it described simply re-runs.
			break
		}
		line := rest[:nl]
		if first {
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("experiments: corrupt journal header in %s: %w", path, err)
			}
			if want := headerFor(cfg); !h.matches(want) {
				return nil, fmt.Errorf("%w: %s was written for scale=%v seed=%d repeats=%d",
					ErrJournalMismatch, path, gen.Scale(h.Scale), h.Seed, h.Repeats)
			}
			first = false
			validLen += nl + 1
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("experiments: corrupt journal record in %s: %w", path, err)
		}
		switch {
		case rec.Kind == "result" && rec.Result != nil:
			if _, dup := j.results[rec.Result.Name]; dup {
				return nil, fmt.Errorf("experiments: journal %s records %s twice", path, rec.Result.Name)
			}
			j.results[rec.Result.Name] = rec.Result
		case rec.Kind == "failure" && rec.Failure != nil:
			fl := rec.Failure
			if _, dup := j.failures[fl.Name]; dup {
				return nil, fmt.Errorf("experiments: journal %s records %s twice", path, fl.Name)
			}
			j.failures[fl.Name] = &MatrixError{
				Name:     fl.Name,
				Ordering: fl.Ordering,
				Class:    fl.Class,
				Attempts: fl.Attempts,
				Err:      errors.New(fl.Message),
			}
		default:
			return nil, fmt.Errorf("experiments: journal %s has an unknown record kind %q", path, rec.Kind)
		}
		validLen += nl + 1
	}
	if first {
		return nil, fmt.Errorf("experiments: journal %s has no complete header", path)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if validLen < len(data) {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	return j, nil
}

// RecordResult appends a completed matrix result and fsyncs before
// returning, making the result durable against a subsequent crash.
func (j *Journal) RecordResult(r *MatrixResult) error {
	return j.append(r.Name, journalRecord{Kind: "result", Result: r}, func() {
		j.results[r.Name] = r
	})
}

// RecordFailure appends a terminal failure. Cancellation-class failures
// must not be recorded (the runner enforces this): a matrix that was
// merely in flight when the run was killed has to re-run on resume.
func (j *Journal) RecordFailure(e *MatrixError) error {
	fl := &journalFailure{
		Name:     e.Name,
		Ordering: e.Ordering,
		Class:    e.Class,
		Attempts: e.Attempts,
		Message:  e.Err.Error(),
	}
	return j.append(e.Name, journalRecord{Kind: "failure", Failure: fl}, func() {
		j.failures[e.Name] = e
	})
}

// append serialises, writes and fsyncs one record. Any error — including
// a fault injected at the journal/append or journal/sync points — is
// returned to the runner, which treats it as run-fatal: a checkpoint that
// cannot be written durably must not be trusted silently.
func (j *Journal) append(name string, rec journalRecord, commit func()) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := faultinject.Check(faultinject.JournalAppend, name); err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	if err := faultinject.Check(faultinject.JournalSync, name); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	commit()
	return nil
}

// Lookup returns the journaled outcome for a matrix name: exactly one of
// the result and failure is non-nil when ok is true.
func (j *Journal) Lookup(name string) (*MatrixResult, *MatrixError, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if r, ok := j.results[name]; ok {
		return r, nil, true
	}
	if f, ok := j.failures[name]; ok {
		return nil, f, true
	}
	return nil, nil, false
}

// Len returns the number of journaled matrices (results plus failures).
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.results) + len(j.failures)
}

// Close fsyncs and closes the underlying file. Both the sync and the
// close error are surfaced — callers must treat a failed Close as fatal
// for the checkpoint, since a write buffered by a silently failing disk
// would otherwise masquerade as a durable record.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return fmt.Errorf("experiments: journal sync on close: %w", serr)
	}
	return cerr
}
