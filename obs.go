package sesa

import (
	"io"

	"sesa/internal/litmus"
	"sesa/internal/obs"
	"sesa/internal/sim"
)

// Tracer is the observability sink of one machine: per-core pipeline event
// rings, the interval-metrics series and the latency histograms.
type Tracer = obs.Tracer

// TraceOptions configures a Tracer (ring capacity, metrics interval,
// histograms).
type TraceOptions = obs.Options

// TraceRun pairs a tracer with a name for export.
type TraceRun = obs.Run

// TraceEvent is one recorded pipeline event.
type TraceEvent = obs.Event

// DefaultTraceBufCap is the default per-core event ring capacity.
const DefaultTraceBufCap = obs.DefaultBufCap

// NewTracer builds a tracer for a machine with the given core count.
func NewTracer(cores int, o TraceOptions) *Tracer { return obs.New(cores, o) }

// WriteChromeTrace renders the runs as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error { return obs.WriteChrome(w, runs) }

// WriteKanataTrace renders the runs as a Kanata pipeline-viewer log.
func WriteKanataTrace(w io.Writer, runs []TraceRun) error { return obs.WriteKanata(w, runs) }

// AttachTracer wires an observability tracer through the system's cores,
// memory hierarchy and interconnect. Call before Run.
func (s *System) AttachTracer(t *Tracer) { s.m.AttachTracer(t) }

// Tracer returns the system's attached tracer (nil when tracing is off).
func (s *System) Tracer() *Tracer { return s.m.Tracer() }

// SimMachine is the underlying simulator machine, exposed for the
// RunLitmusTraced attach hook.
type SimMachine = sim.Machine

// RunLitmusTraced is RunLitmus with a per-iteration machine hook, used to
// attach tracers to litmus iterations. Every iteration runs on one machine,
// reset before the hook is called, so the hook receives the same machine on
// every iteration, already reset and with no tracer attached. A hook that
// keeps per-iteration data must keep the tracer or m.Stats, not the
// machine.
func RunLitmusTraced(t LitmusTest, model Model, iters int, seed uint64,
	attach func(iter int, m *sim.Machine)) (*LitmusResult, error) {
	return litmus.RunTraced(t, model, iters, seed, attach)
}
