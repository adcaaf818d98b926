// Package slogx is the repo's operator log: a thin, nil-safe wrapper
// over log/slog with the two handler formats the CLIs expose behind
// -log-format ("text" and "json") and canonical attribute constructors
// for the fields the serving path correlates on (request_id, route,
// status).
//
// Like the obs handle types, a nil *Logger is a valid "disabled" logger:
// every method is a no-op on a nil receiver, so library callers that
// want no log (tests, the benchmark) pass nil and call sites log
// unconditionally.
package slogx

import (
	"context"
	"io"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"
)

// Options configures New. The zero value is usable: JSON format at info
// level to os.Stderr.
type Options struct {
	// Format selects the handler: "json" (default) or "text".
	Format string
	// Level is the minimum level: "info" (default), "warn" or "error".
	// Nothing logs below info; unknown strings fall back to info.
	Level string
	// W is the destination (default os.Stderr).
	W io.Writer
	// OmitTime drops the time attribute from records, so test output is
	// byte-comparable across runs.
	OmitTime bool
}

// ParseLevel maps a -log-level flag string onto a slog.Level, defaulting
// to info for anything unrecognized.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Logger is a nil-safe structured logger. Obtain one from New; pass nil
// to disable logging at every call site transparently.
type Logger struct {
	s *slog.Logger
}

// New builds a Logger for the given options. Format "text" selects the
// slog text handler; anything else (including the default "") selects
// JSON.
func New(opts Options) *Logger {
	w := opts.W
	if w == nil {
		w = os.Stderr
	}
	hopts := &slog.HandlerOptions{Level: ParseLevel(opts.Level)}
	if opts.OmitTime {
		hopts.ReplaceAttr = func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		}
	}
	var h slog.Handler
	if strings.EqualFold(opts.Format, "text") {
		h = slog.NewTextHandler(w, hopts)
	} else {
		h = slog.NewJSONHandler(w, hopts)
	}
	return &Logger{s: slog.New(h)}
}

// StdLogger returns a standard library logger that turns each line it
// is given into one record at level, for APIs such as
// http.Server.ErrorLog. On a nil Logger it discards.
func (l *Logger) StdLogger(level slog.Level) *log.Logger {
	if l == nil {
		return log.New(io.Discard, "", 0)
	}
	return slog.NewLogLogger(l.s.Handler(), level)
}

// Info logs at info level. No-op on a nil logger.
func (l *Logger) Info(msg string, attrs ...slog.Attr) {
	if l == nil {
		return
	}
	l.s.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
}

// Warn logs at warn level. No-op on a nil logger.
func (l *Logger) Warn(msg string, attrs ...slog.Attr) {
	if l == nil {
		return
	}
	l.s.LogAttrs(context.Background(), slog.LevelWarn, msg, attrs...)
}

// Error logs at error level. No-op on a nil logger.
func (l *Logger) Error(msg string, attrs ...slog.Attr) {
	if l == nil {
		return
	}
	l.s.LogAttrs(context.Background(), slog.LevelError, msg, attrs...)
}

// RequestID is the canonical request-correlation attribute; the same ID
// appears on the response's X-Request-ID header and the run's trace
// spans.
func RequestID(id string) slog.Attr { return slog.String("request_id", id) }

// Route is the matched route pattern (not the raw URL, which may carry
// user data).
func Route(route string) slog.Attr { return slog.String("route", route) }

// Status is the final HTTP status code of a request.
func Status(code int) slog.Attr { return slog.Int("status", code) }

// Duration is the wall-clock duration of the logged operation.
func Duration(d time.Duration) slog.Attr { return slog.Duration("duration", d) }

// Stack is the goroutine stack captured where a panic was recovered.
func Stack(stack string) slog.Attr { return slog.String("stack", stack) }

// Err is the canonical error attribute ("error" key, Error() value); nil
// maps to an empty string so call sites need no branch.
func Err(err error) slog.Attr {
	if err == nil {
		return slog.String("error", "")
	}
	return slog.String("error", err.Error())
}
