// Package obs is the simulator's observability layer: a cycle-level,
// per-core pipeline event tracer and an interval-metrics sampler.
//
// The paper's dynamics — the Figure 8 gate close/reopen sequence, the
// x264 contended-sync and 505.mcf eviction-squash pathologies of Table IV —
// are invisible in end-of-run aggregates. The tracer records every typed
// pipeline event (dispatch, issue, perform, retire, SLF hits, gate
// transitions, squashes with cause, store-buffer memory-order insertions,
// invalidation/eviction snoops) with its cycle timestamp into a per-core
// ring buffer, and the exporters render the record as a Chrome trace-event
// JSON file (loadable in Perfetto) or as a Kanata pipeline-viewer log.
//
// The tracer is also the machine's one latency-histogram sink: with
// Options.Hists it owns a hist.Set, and each core's tracer carries that
// core's collector beside its event ring.
//
// The subsystem is designed around a nil-checked sink: a core or hierarchy
// holds a *CoreTracer pointer that is nil when no tracer is attached, so the
// disabled path costs one never-taken branch per hook and allocates
// nothing. Everything recorded is derived from deterministic simulator
// state, so trace output is byte-identical for a fixed seed regardless of
// how many workers ran the sweep.
package obs

import (
	"fmt"

	"sesa/internal/hist"
	"sesa/internal/isa"
)

// Kind enumerates the typed pipeline events.
type Kind uint8

// Pipeline event kinds.
const (
	// KDispatch: the instruction entered the ROB (and LQ/SQ).
	KDispatch Kind = iota
	// KIssue: the instruction began execution (or its memory request left
	// for the hierarchy).
	KIssue
	// KPerform: the instruction's result became available — a load
	// performed, an ALU op finished, a store resolved address and data.
	KPerform
	// KRetire: the instruction left the ROB.
	KRetire
	// KFlush: the instruction was squashed out of the ROB before retiring.
	KFlush
	// KSLFHit: an issuing load forwarded from an in-flight store; Key is
	// the forwarding store's SQ/SB key.
	KSLFHit
	// KGateClose: a retiring SLF load closed the retire gate; Key is the
	// gate's lock key (KeyNone for the unkeyed 370-SLFSoS variant).
	KGateClose
	// KGateReopen: the gate reopened — the locking store wrote to the L1,
	// or the store buffer drained (unkeyed variant).
	KGateReopen
	// KSquash: a pipeline flush started at this instruction; Cause
	// attributes it (SA vs M-spec vs StoreSet) and N counts the flushed
	// instructions.
	KSquash
	// KSBInsert: a store left the store buffer — its memory-order
	// insertion (L1 write) completed.
	KSBInsert
	// KSnoop: an invalidation or eviction was delivered to the core's
	// private caches and snooped its load queue; Cause distinguishes
	// CauseInval from CauseEvict.
	KSnoop
	numKinds
)

var kindNames = [...]string{
	KDispatch:   "dispatch",
	KIssue:      "issue",
	KPerform:    "perform",
	KRetire:     "retire",
	KFlush:      "flush",
	KSLFHit:     "slf-hit",
	KGateClose:  "gate-close",
	KGateReopen: "gate-reopen",
	KSquash:     "squash",
	KSBInsert:   "sb-insert",
	KSnoop:      "snoop",
}

// String names the event kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Cause attributes squash and snoop events.
type Cause uint8

// Squash and snoop causes.
const (
	CauseNone Cause = iota
	// CauseSA: a store-atomicity misspeculation — the load was
	// SA-speculative when an invalidation or eviction caught it.
	CauseSA
	// CauseMSpec: baseline load-load (in-window) misspeculation.
	CauseMSpec
	// CauseStoreSet: a memory-dependence misspeculation detected at store
	// address resolution.
	CauseStoreSet
	// CauseInval: a remote invalidation (snoop events).
	CauseInval
	// CauseEvict: a local capacity eviction (snoop events).
	CauseEvict
	// CauseValidation: an invisible speculative load (370-RCP) whose
	// retire-time value validation against memory failed.
	CauseValidation
)

var causeNames = [...]string{
	CauseNone:       "none",
	CauseSA:         "SA",
	CauseMSpec:      "M-spec",
	CauseStoreSet:   "StoreSet",
	CauseInval:      "inval",
	CauseEvict:      "evict",
	CauseValidation: "validation",
}

// String names the cause.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// KeyNone marks an event that carries no store key.
const KeyNone int32 = -1

// EncodeKey packs an SQ/SB slot index and its sorting bit into the compact
// key representation events carry (slot<<1 | sort).
func EncodeKey(slot int, sort bool) int32 {
	k := int32(slot) << 1
	if sort {
		k |= 1
	}
	return k
}

// DecodeKey unpacks an encoded store key.
func DecodeKey(k int32) (slot int, sort bool) { return int(k >> 1), k&1 != 0 }

// Event is one recorded pipeline event. Not every field is meaningful for
// every kind; unused fields are zero (Key is KeyNone when absent).
type Event struct {
	// Cycle is the event's timestamp.
	Cycle uint64
	// Kind is the event type.
	Kind Kind
	// Cause attributes squashes and snoops.
	Cause Cause
	// Op is the instruction's micro-op kind (instruction events).
	Op isa.Op
	// Seq is the per-core dynamic sequence number of the instruction
	// (instruction events; re-execution gets a new one).
	Seq uint64
	// TraceIdx is the instruction's index in the core's program.
	TraceIdx int32
	// Key is the encoded SQ/SB store key (KeyNone if absent).
	Key int32
	// Addr is the memory address or cache-line address involved.
	Addr uint64
	// N is a kind-specific payload: flushed instruction count for KSquash,
	// the performed/forwarded value for KPerform.
	N uint64
}

// CoreTracer records one core's events into a bounded ring buffer and its
// latency samples into its histogram collector; either may be absent. It is
// owned by a single machine and is not safe for concurrent use — machines
// are single-threaded and a parallel sweep gives each machine its own
// tracer.
type CoreTracer struct {
	capacity int // at most 0: no ring, and Record does nothing
	buf      []Event
	start    int // index of the oldest event once the ring wrapped
	dropped  uint64

	// counts tallies recorded events per kind, including any that were
	// later overwritten by ring wrap-around.
	counts [numKinds]uint64

	// hc is the core's histogram collector; nil when the tracer collects
	// no histograms.
	hc *hist.Collector
}

// Record appends the event, overwriting the oldest once the ring is full.
// The buffer grows lazily up to its capacity, so small runs stay small. A
// tracer with no ring records nothing.
func (t *CoreTracer) Record(ev Event) {
	if t.capacity <= 0 {
		return
	}
	t.counts[ev.Kind]++
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.start] = ev
	t.start = (t.start + 1) % t.capacity
	t.dropped++
}

// Observe records one latency sample of metric m, when the tracer collects
// histograms.
func (t *CoreTracer) Observe(m hist.Metric, v uint64) {
	if t.hc != nil {
		t.hc.Observe(m, v)
	}
}

// Events returns the retained events in recording order. The returned slice
// is freshly allocated only when the ring has wrapped.
func (t *CoreTracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.start == 0 {
		return t.buf
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// Dropped reports how many events were overwritten by ring wrap-around.
func (t *CoreTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Count returns the number of events of kind k recorded over the run,
// including any dropped by wrap-around.
func (t *CoreTracer) Count(k Kind) uint64 {
	if t == nil {
		return 0
	}
	return t.counts[k]
}

// DefaultBufCap is the default per-core ring capacity: ample for the smoke
// runs (~5 events per instruction) while bounding a long run's memory.
const DefaultBufCap = 1 << 20

// Options configures a Tracer.
type Options struct {
	// BufCap is the per-core event ring capacity; 0 disables event
	// recording (metrics may still be enabled).
	BufCap int
	// MetricsInterval samples interval metrics every N cycles; 0 disables
	// sampling.
	MetricsInterval uint64
	// Hists collects the latency histograms: one collector per core plus
	// one for the interconnect.
	Hists bool
}

// Tracer is the machine-level observability sink: per-core event rings, the
// interval-metrics series and the latency histograms.
type Tracer struct {
	opts    Options
	cores   []*CoreTracer
	metrics *Metrics
	hists   *hist.Set
}

// New builds a tracer for a machine with the given core count.
func New(cores int, o Options) *Tracer {
	t := &Tracer{opts: o, cores: make([]*CoreTracer, cores)}
	if o.Hists {
		t.hists = hist.NewSet(cores)
	}
	if o.BufCap > 0 || o.Hists {
		for i := range t.cores {
			t.cores[i] = &CoreTracer{capacity: o.BufCap, hc: t.hists.Core(i)}
		}
	}
	if o.MetricsInterval > 0 {
		t.metrics = newMetrics(cores, o.MetricsInterval)
	}
	return t
}

// Core returns core i's tracer, or nil when it would record neither events
// nor histograms — the nil a core stores and checks in its hooks.
func (t *Tracer) Core(i int) *CoreTracer {
	if t == nil {
		return nil
	}
	return t.cores[i]
}

// Hists returns the latency histograms, or nil when collection is off.
func (t *Tracer) Hists() *hist.Set {
	if t == nil {
		return nil
	}
	return t.hists
}

// Cores reports the machine's core count.
func (t *Tracer) Cores() int { return len(t.cores) }

// Metrics returns the interval-metrics series, or nil when sampling is
// disabled.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// MetricsInterval returns the sampling interval in cycles (0 = disabled).
// Safe on a nil receiver, so a machine without a tracer can call it per step.
func (t *Tracer) MetricsInterval() uint64 {
	if t == nil {
		return 0
	}
	return t.opts.MetricsInterval
}

// Run pairs a tracer with a name for export: one simulated machine
// execution (a benchmark under a model, or one litmus iteration).
type Run struct {
	// Name labels the run in the exported trace (e.g. "x264/370-SLFSoS-key"
	// or "n6+sbp/370-SLFSoS-key#3").
	Name string
	// Tracer holds the run's recorded events and metrics.
	Tracer *Tracer
}
