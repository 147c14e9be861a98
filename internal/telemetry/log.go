package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// LogLevel orders logger verbosity: errors only (-quiet), the default info
// stream, or debug detail (-v).
type LogLevel int

const (
	// LogError emits errors only (the -quiet flag).
	LogError LogLevel = iota
	// LogInfo is the default level: progress, results, warnings.
	LogInfo
	// LogDebug adds per-step diagnostic detail (the -v flag).
	LogDebug
)

// LevelFromFlags maps the shared -quiet/-v command-line flags onto a level;
// -quiet wins when both are set (a script asking for silence should get it).
func LevelFromFlags(quiet, verbose bool) LogLevel {
	switch {
	case quiet:
		return LogError
	case verbose:
		return LogDebug
	default:
		return LogInfo
	}
}

// Logger is the leveled logger shared by all commands. One mutex serializes
// every line, so progress output and ops-plane lines never interleave
// mid-line. Lines render as "name: message", matching
// the historical log.SetPrefix style; debug lines as "name: debug: message".
//
// A nil *Logger is a valid no-op sink for Infof/Debugf; Errorf and Fatalf
// fall back to stderr so failures are never silently dropped.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	name  string
	level LogLevel
	exit  func(int) // os.Exit, injectable for tests
}

// NewLogger returns a logger writing "name: ..." lines to w at the given
// level. A nil writer means stderr.
func NewLogger(name string, w io.Writer, level LogLevel) *Logger {
	if w == nil {
		w = os.Stderr
	}
	return &Logger{w: w, name: name, level: level, exit: os.Exit}
}

// Level reports the logger's verbosity (LogInfo for a nil logger).
func (l *Logger) Level() LogLevel {
	if l == nil {
		return LogInfo
	}
	return l.level
}

func (l *Logger) emit(prefix, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%s: %s%s\n", l.name, prefix, fmt.Sprintf(format, args...))
}

// Infof logs at the default level.
func (l *Logger) Infof(format string, args ...any) {
	if l == nil || l.level < LogInfo {
		return
	}
	l.emit("", format, args...)
}

// Debugf logs diagnostic detail shown only with -v.
func (l *Logger) Debugf(format string, args ...any) {
	if l == nil || l.level < LogDebug {
		return
	}
	l.emit("debug: ", format, args...)
}

// Errorf logs an error line; it is emitted at every level, including -quiet.
func (l *Logger) Errorf(format string, args ...any) {
	if l == nil {
		fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
		return
	}
	l.emit("error: ", format, args...)
}

// Fatalf logs an error line and exits with status 1.
func (l *Logger) Fatalf(format string, args ...any) {
	l.Errorf(format, args...)
	if l != nil && l.exit != nil {
		l.exit(1)
		return
	}
	os.Exit(1)
}

// Fatal is Fatalf for a bare value, mirroring log.Fatal call sites.
func (l *Logger) Fatal(v any) {
	l.Fatalf("%v", v)
}
