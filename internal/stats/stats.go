// Package stats collects the measurements the paper reports: Table IV's
// characterization columns, Figure 9's dispatch-stall attribution and
// Figure 10's execution time.
package stats

import (
	"fmt"
	"math"
)

// StallCause identifies why dispatch could not make progress in a cycle
// (Figure 9 attributes stalls to the full structure blocking dispatch).
type StallCause int

// Dispatch stall causes.
const (
	StallNone StallCause = iota
	StallROB
	StallLQ
	StallSQ
	numStallCauses
)

var stallNames = [...]string{
	StallNone: "none",
	StallROB:  "ROB",
	StallLQ:   "LQ",
	StallSQ:   "SQ/SB",
}

// String names the stall cause as in Figure 9's legend.
func (s StallCause) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return fmt.Sprintf("stall(%d)", int(s))
}

// Core accumulates per-core counters.
type Core struct {
	Cycles        uint64 // cycles the core was active
	RetiredInsts  uint64
	RetiredLoads  uint64
	RetiredStores uint64

	// SLFLoads counts retired loads whose value came from a store-to-load
	// forwarding (Table IV "Forwarded").
	SLFLoads uint64

	// GateStalls counts instructions that stalled at the head of the ROB
	// because the retire gate was closed (Table IV "Gate Stalls"), and
	// GateStallCycles the total cycles those instructions waited.
	GateStalls      uint64
	GateStallCycles uint64

	// GateCloses and GateReopens count retire-gate transitions, and
	// GateClosedCycles the cycles the gate spent closed.
	GateCloses       uint64
	GateReopens      uint64
	GateClosedCycles uint64

	// Squashes counts pipeline flushes caused by an invalidation or
	// eviction hitting a speculative performed load, and ReexecInsts the
	// instructions re-executed because of them (from the squashed load to
	// the ROB tail). The SA* subset counts only store-atomicity
	// misspeculations — loads that were squashed because they were
	// SA-speculative and would NOT have been squashed under the baseline
	// load-load (M-speculative) rules every model shares. Table IV's
	// "Re-executed instr." is the SA subset.
	Squashes      uint64
	ReexecInsts   uint64
	SASquashes    uint64
	SAReexecInsts uint64

	// DepSquashes counts memory-dependence misspeculations (StoreSet).
	DepSquashes uint64

	// BranchMispredicts counts resolved mispredicted branches.
	BranchMispredicts uint64

	// NoSpecWaits counts loads that were delayed by blanket 370
	// enforcement (matching store had to drain first) and the cycles so
	// spent.
	NoSpecWaits     uint64
	NoSpecWaitCyc   uint64
	SLFSpecRetWaits uint64 // loads held at retire by SLFSpec SB-drain rule

	// StallCycles[c] counts cycles dispatch was blocked with cause c.
	StallCycles [numStallCauses]uint64

	// LQSnoops counts invalidation/eviction snoops of the load queue;
	// LQSnoopHits those that matched a performed speculative load.
	// EvictionSquashes is the subset of squashes caused by local cache
	// evictions rather than remote invalidations (505.mcf's failure
	// mode in Table IV).
	LQSnoops         uint64
	LQSnoopHits      uint64
	EvictionSquashes uint64

	// SQSearches counts store-queue snoops by issuing loads. The paper's
	// energy argument (Section VI-B) is that the mechanism adds no
	// snoops: the key copy rides on this search, which a conventional
	// core already performs for every load.
	SQSearches uint64

	// VersionSpecLoads counts loads the 370-Louvre machine issued past a
	// still-in-flight fence; such loads remain squashable until the fence
	// retires. InvisibleLoads counts loads the 370-RCP machine issued
	// without touching directory or cache state; Validations counts their
	// retire-time value checks and ValidationSquashes the subset that
	// failed and flushed. All four are zero on the five paper machines, so
	// they are omitted from JSON and pre-roster goldens stay byte-identical.
	VersionSpecLoads   uint64 `json:",omitempty"`
	InvisibleLoads     uint64 `json:",omitempty"`
	Validations        uint64 `json:",omitempty"`
	ValidationSquashes uint64 `json:",omitempty"`
}

// StallPct returns the percentage of cycles stalled with the given cause.
func (c *Core) StallPct(cause StallCause) float64 {
	if c.Cycles == 0 {
		return 0
	}
	return 100 * float64(c.StallCycles[cause]) / float64(c.Cycles)
}

// TotalStallPct is the Figure 9 quantity: percentage of cycles in which the
// processor cannot make progress due to a full ROB, LQ or SQ/SB.
func (c *Core) TotalStallPct() float64 {
	return c.StallPct(StallROB) + c.StallPct(StallLQ) + c.StallPct(StallSQ)
}

// NoCTraffic is the machine-wide interconnect usage, per message class:
// control (requests, invalidations, acks) versus data (line transfers).
type NoCTraffic struct {
	ControlMsgs  uint64
	DataMsgs     uint64
	ControlFlits uint64
	DataFlits    uint64
}

// Msgs returns the total message count.
func (t NoCTraffic) Msgs() uint64 { return t.ControlMsgs + t.DataMsgs }

// Flits returns the total flit count.
func (t NoCTraffic) Flits() uint64 { return t.ControlFlits + t.DataFlits }

// String renders the traffic as a single report line.
func (t NoCTraffic) String() string {
	return fmt.Sprintf("noc: %d msgs (%d control, %d data), %d flits (%d control, %d data)",
		t.Msgs(), t.ControlMsgs, t.DataMsgs, t.Flits(), t.ControlFlits, t.DataFlits)
}

// Machine aggregates per-core statistics for one simulation.
type Machine struct {
	Model    string
	Workload string
	Cores    []Core
	// Cycles is the machine execution time: the cycle at which the last
	// core finished its trace.
	Cycles uint64
	// NoC is the interconnect traffic accumulated over the run, captured
	// from the network when the machine finishes (or times out).
	NoC NoCTraffic
}

// New returns a Machine with n per-core slots.
func New(model, workload string, n int) *Machine {
	return &Machine{Model: model, Workload: workload, Cores: make([]Core, n)}
}

// Total returns the sum of all per-core counters. Cycles is the max (the
// machine's wall-clock), StallCycles sums are kept per cause.
func (m *Machine) Total() Core {
	var t Core
	for i := range m.Cores {
		c := &m.Cores[i]
		if c.Cycles > t.Cycles {
			t.Cycles = c.Cycles
		}
		t.RetiredInsts += c.RetiredInsts
		t.RetiredLoads += c.RetiredLoads
		t.RetiredStores += c.RetiredStores
		t.SLFLoads += c.SLFLoads
		t.GateStalls += c.GateStalls
		t.GateStallCycles += c.GateStallCycles
		t.GateCloses += c.GateCloses
		t.GateReopens += c.GateReopens
		t.GateClosedCycles += c.GateClosedCycles
		t.Squashes += c.Squashes
		t.ReexecInsts += c.ReexecInsts
		t.SASquashes += c.SASquashes
		t.SAReexecInsts += c.SAReexecInsts
		t.DepSquashes += c.DepSquashes
		t.BranchMispredicts += c.BranchMispredicts
		t.NoSpecWaits += c.NoSpecWaits
		t.NoSpecWaitCyc += c.NoSpecWaitCyc
		t.SLFSpecRetWaits += c.SLFSpecRetWaits
		t.LQSnoops += c.LQSnoops
		t.LQSnoopHits += c.LQSnoopHits
		t.EvictionSquashes += c.EvictionSquashes
		t.SQSearches += c.SQSearches
		t.VersionSpecLoads += c.VersionSpecLoads
		t.InvisibleLoads += c.InvisibleLoads
		t.Validations += c.Validations
		t.ValidationSquashes += c.ValidationSquashes
		for s := range t.StallCycles {
			t.StallCycles[s] += c.StallCycles[s]
		}
	}
	return t
}

// Characterization is one row of Table IV.
type Characterization struct {
	Benchmark        string
	Instructions     uint64
	LoadsPct         float64 // retired loads, % of total instructions
	ForwardedPct     float64 // SLF loads, % of total instructions
	GateStallsPct    float64 // instructions stalling at ROB head on closed gate, %
	AvgStallCycles   float64 // average cycles per gate stall
	ReexecutedPct    float64 // re-executed due to SA misspeculation, % (Table IV)
	TotalReexecPct   float64 // re-executed incl. baseline load-load squashes, %
	Cycles           uint64
	IPC              float64
	StallROBPct      float64
	StallLQPct       float64
	StallSQPct       float64
	TotalStallPct    float64
	SquashesPerMInst float64
}

// Characterize computes the Table IV row for this machine run.
func (m *Machine) Characterize() Characterization {
	t := m.Total()
	ch := Characterization{
		Benchmark:    m.Workload,
		Instructions: t.RetiredInsts,
		Cycles:       m.Cycles,
	}
	if t.RetiredInsts > 0 {
		insts := float64(t.RetiredInsts)
		ch.LoadsPct = 100 * float64(t.RetiredLoads) / insts
		ch.ForwardedPct = 100 * float64(t.SLFLoads) / insts
		ch.GateStallsPct = 100 * float64(t.GateStalls) / insts
		ch.ReexecutedPct = 100 * float64(t.SAReexecInsts) / insts
		ch.TotalReexecPct = 100 * float64(t.ReexecInsts) / insts
		ch.SquashesPerMInst = 1e6 * float64(t.Squashes) / insts
	}
	if t.GateStalls > 0 {
		ch.AvgStallCycles = float64(t.GateStallCycles) / float64(t.GateStalls)
	}
	if m.Cycles > 0 {
		ch.IPC = float64(t.RetiredInsts) / float64(m.Cycles)
	}
	// Stall percentages are averaged over cores, matching Figure 9 (per
	// core stalls, then mean across the machine).
	var rob, lq, sq float64
	var n int
	for i := range m.Cores {
		c := &m.Cores[i]
		if c.Cycles == 0 {
			continue
		}
		rob += c.StallPct(StallROB)
		lq += c.StallPct(StallLQ)
		sq += c.StallPct(StallSQ)
		n++
	}
	if n > 0 {
		ch.StallROBPct = rob / float64(n)
		ch.StallLQPct = lq / float64(n)
		ch.StallSQPct = sq / float64(n)
		ch.TotalStallPct = ch.StallROBPct + ch.StallLQPct + ch.StallSQPct
	}
	return ch
}

// GeoMean returns the geometric mean of xs; it returns 0 for empty input and
// ignores non-positive entries the way benchmark reporting conventionally
// does (they cannot occur for execution-time ratios).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		prod *= x
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
