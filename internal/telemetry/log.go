package telemetry

import (
	"log/slog"
	"os"
)

// Structured logging: every component gets a slog.Logger tagged with its
// name. Output is text on stderr, filtered by one process-wide level that
// loggers handed out earlier follow too.

var (
	logLevel   slog.LevelVar // zero value: info
	logHandler slog.Handler  = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &logLevel})
)

// SetLogLevel sets the level every component logs at.
func SetLogLevel(level slog.Level) { logLevel.Set(level) }

// Logger returns the named component's structured logger: the shared
// handler with a component attribute.
func Logger(component string) *slog.Logger {
	return slog.New(logHandler).With("component", component)
}
