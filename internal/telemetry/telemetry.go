// Package telemetry is the service-layer observability stack: structured
// logging on log/slog, a dependency-free Prometheus-text metrics registry,
// and sweep timelines exported as Chrome-trace JSON.
//
// It is the service-side sibling of internal/obs and internal/hist, and
// follows the same discipline: every hook is nil-checked and off by
// default, so a binary that never asks for telemetry pays a nil comparison
// at most — simulation output stays byte-identical and the CI overhead
// guard stays green. Unlike obs/hist, nothing here ever touches the
// simulation hot path at all: telemetry instruments the layer *around* the
// simulator (admission, queues, HTTP), where events are per-job or
// per-sweep, not per-cycle.
//
// Attribute conventions (shared by every component so logs aggregate
// cleanly):
//
//	component  which subsystem emitted the record ("serve", or a cmd name)
//	sweep      the sweep id ("sw-000001")
package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Shared attribute keys; see the package comment for the convention.
const (
	KeyComponent = "component"
	KeySweep     = "sweep"
)

// NewLogger builds a slog.Logger writing to w. level is one of debug, info,
// warn, error; format is text or json (the values of sesa-serve's
// -log-level and -log-format flags).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
}

// ParseLevel parses a -log-level flag value.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// discardHandler drops every record (slog.DiscardHandler exists only from
// Go 1.24; the module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var discard = slog.New(discardHandler{})

// Discard returns a logger that drops everything — the nil-object default
// so call sites never branch on logger presence.
func Discard() *slog.Logger { return discard }
