package config

import "flag"

// Telemetry holds the structured-logging flag values of the two daemons,
// sesa-serve and sesa-worker; the batch CLIs do not log. The strings are
// parsed by internal/telemetry (NewLogger), which owns the level/format
// vocabulary; config only carries them from the command line so both
// daemons spell the flags identically.
type Telemetry struct {
	// LogLevel is the minimum level emitted: debug, info, warn or error.
	LogLevel string
	// LogFormat is the handler encoding: text (human-readable key=value)
	// or json (one object per line, for log shippers).
	LogFormat string
}

// TelemetryFlags registers the shared -log-level and -log-format flags on
// the process-global flag set and returns the destination struct. Call
// before flag.Parse.
func TelemetryFlags() *Telemetry {
	t := &Telemetry{}
	flag.StringVar(&t.LogLevel, "log-level", "info", "structured-log level: debug, info, warn or error")
	flag.StringVar(&t.LogFormat, "log-format", "text", "structured-log encoding: text or json")
	return t
}
