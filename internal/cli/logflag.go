package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"trajpattern/internal/obs/slogx"
)

// LogFlags is the -log-format / -log-level pair every CLI exposes. Both
// formats write log/slog records (internal/obs/slogx): the operator log
// is where a command reports lifecycle events and failures.
type LogFlags struct {
	Format string
	Level  string
}

// Register installs the shared logging flags on fs (the cmds pass
// flag.CommandLine).
func (f *LogFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Format, "log-format", "text", "operator log format: text or json")
	fs.StringVar(&f.Level, "log-level", "info", "minimum log level: info, warn or error")
}

// Logger builds the logger the flags select, writing to w. It rejects a
// level other than info, warn or error: nothing logs below info, so any
// other value would only look like it changed the output.
func (f *LogFlags) Logger(w io.Writer) (*slogx.Logger, error) {
	format := strings.ToLower(strings.TrimSpace(f.Format))
	if format != "text" && format != "json" {
		return nil, fmt.Errorf("cli: unknown -log-format %q (want text or json)", f.Format)
	}
	switch strings.ToLower(strings.TrimSpace(f.Level)) {
	case "info", "warn", "error":
	default:
		return nil, fmt.Errorf("cli: unknown -log-level %q (want info, warn or error)", f.Level)
	}
	return slogx.New(slogx.Options{Format: format, Level: f.Level, W: w}), nil
}
