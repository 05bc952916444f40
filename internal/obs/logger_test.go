package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoggerLevelGating pins the -v contract: below-level lines are
// dropped, Printf bypasses the filter, and the wire format is exactly
// prefix+message+"\n" (stdlib log with zero flags), so scripts parsing
// stderr see no change from the log.Printf era.
func TestLoggerLevelGating(t *testing.T) {
	var b strings.Builder
	lg := NewLogger(&b, LevelWarn, "study: ")
	lg.Infof("quiet %d", 1)
	lg.Warnf("warn %d", 2)
	lg.Errorf("err %d", 3)
	lg.Printf("forced %d", 4)
	want := "study: warn 2\nstudy: err 3\nstudy: forced 4\n"
	if b.String() != want {
		t.Errorf("output = %q, want %q", b.String(), want)
	}
	if lg.Enabled(LevelInfo) || !lg.Enabled(LevelWarn) {
		t.Error("Enabled disagrees with the configured level")
	}
}

// TestLoggerWorkerPrefix checks the derived per-worker logger's prefix and
// that it shares the parent's level.
func TestLoggerWorkerPrefix(t *testing.T) {
	var b strings.Builder
	lg := NewLogger(&b, LevelWarn, "study: ")
	w := lg.Worker(3)
	w.Warnf("evaluating %s", "g0")
	w.Infof("hidden")
	if got, want := b.String(), "study: [w3] evaluating g0\n"; got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestLoggerEventMirroring checks emitted lines are mirrored as structured
// "log" events carrying level and worker id.
func TestLoggerEventMirroring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	ev, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	lg := NewLogger(&b, LevelInfo, "study: ")
	lg.AttachEvents(ev)
	lg.Warnf("base line")
	lg.Worker(2).Infof("worker line")
	lg.Infof("dropped?") // printed (info ≥ info) and mirrored
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	events := readEvents(t, path)
	var logs []Event
	for _, e := range events {
		if e.Ev == "log" {
			logs = append(logs, e)
		}
	}
	if len(logs) != 3 {
		t.Fatalf("%d log events, want 3: %+v", len(logs), logs)
	}
	if logs[0].Level != "warn" || logs[0].Msg != "base line" || logs[0].Worker != nil {
		t.Errorf("base event = %+v", logs[0])
	}
	if logs[1].Worker == nil || *logs[1].Worker != 2 || logs[1].Msg != "worker line" {
		t.Errorf("worker event = %+v", logs[1])
	}
}

// TestLoggerSuppressedLineNotMirrored: a level-dropped line must not reach
// the event log either.
func TestLoggerSuppressedLineNotMirrored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	ev, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	lg := NewLogger(os.Stderr, LevelError, "x: ")
	lg.AttachEvents(ev)
	lg.Infof("quiet")
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range readEvents(t, path) {
		if e.Ev == "log" {
			t.Errorf("suppressed line reached the event log: %+v", e)
		}
	}
}

// TestNilLogger drives every method through a nil receiver.
func TestNilLogger(t *testing.T) {
	var lg *Logger
	lg.Infof("b")
	lg.Warnf("c")
	lg.Errorf("d")
	lg.Printf("e")
	lg.AttachEvents(nil)
	if lg.Worker(1) != nil {
		t.Error("nil logger Worker returned non-nil")
	}
	if lg.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}
