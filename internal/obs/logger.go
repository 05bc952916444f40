package obs

import (
	"fmt"
	"io"
	"sync"
)

// Level is a log severity.
type Level int

// Log levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// Logger is a leveled line logger. Lines below the configured level are
// dropped; everything else is written as prefix+message+"\n" — the same
// wire format as the stdlib log package with zero flags, so replacing
// log.Printf keeps stderr byte-stable for scripts. When an EventLog is
// attached, every emitted line is also recorded as a structured "log"
// event carrying its level and worker id.
//
// Derived loggers (Worker) share the parent's writer, mutex, level and
// event sink, so output from any number of workers interleaves line-atomically.
type Logger struct {
	core   *loggerCore
	prefix string
	worker int // -1 when not worker-scoped
}

type loggerCore struct {
	mu     sync.Mutex
	w      io.Writer
	level  Level
	events *EventLog
}

// NewLogger returns a logger writing lines at or above level to w with the
// given prefix (e.g. "study: ").
func NewLogger(w io.Writer, level Level, prefix string) *Logger {
	return &Logger{core: &loggerCore{w: w, level: level}, prefix: prefix, worker: -1}
}

// AttachEvents mirrors every emitted line into the event log.
func (l *Logger) AttachEvents(e *EventLog) {
	if l == nil {
		return
	}
	l.core.mu.Lock()
	l.core.events = e
	l.core.mu.Unlock()
}

// Worker returns a derived logger whose lines carry a "[wN] " per-worker
// prefix after the base prefix, and whose structured events record the
// worker id.
func (l *Logger) Worker(n int) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{core: l.core, prefix: fmt.Sprintf("%s[w%d] ", l.prefix, n), worker: n}
}

// Enabled reports whether a line at the given level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.core.level
}

func (l *Logger) logf(level Level, force bool, format string, args ...any) {
	if l == nil || (!force && !l.Enabled(level)) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	l.core.mu.Lock()
	fmt.Fprintf(l.core.w, "%s%s\n", l.prefix, msg)
	events := l.core.events
	l.core.mu.Unlock()
	if events != nil {
		events.emitLog(level, msg, l.worker)
	}
}

// Infof logs at info level. All level methods are nil-receiver safe.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, false, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, false, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, false, format, args...) }

// Printf emits an info-level line regardless of the configured level. It is
// the drop-in replacement for bare log.Printf call sites whose output
// scripts depend on: the line always reaches stderr (and the event log),
// even when the level filter would suppress ordinary Infof traffic.
func (l *Logger) Printf(format string, args ...any) { l.logf(LevelInfo, true, format, args...) }
