// Package config holds the simulated system configuration.
//
// The default configuration reproduces Table III of the paper: an 8-core
// Skylake-like out-of-order multicore with private L1/L2 caches, a shared
// 8-bank L3, a directory-based write-atomic MESI protocol and a fully
// connected interconnect.
package config

import (
	"fmt"
	"math"
	"strings"
)

// Model selects the machine a core runs. The value is an index into the
// machine registry below, whose row is the machine's whole definition.
type Model int

// The machine roster: the five machines compared in Section VI of the
// paper, followed by two machines from related work. Registry order is
// presentation order everywhere (sweeps, flags, litmus tables), so new
// machines append.
const (
	// X86 is the non-store-atomic x86-TSO baseline: store-to-load
	// forwarding from in-limbo stores is unrestricted and SLF loads retire
	// freely. Load-load ordering uses in-window speculation.
	X86 Model = iota
	// NoSpec370 enforces store atomicity without speculation, as IBM 370:
	// a load matching a store in the SQ/SB cannot perform until that store
	// has written to the L1.
	NoSpec370
	// SLFSpec370 adapts in-window SC-like speculation to the 370 model:
	// SLF loads perform speculatively but cannot retire until the store
	// buffer drains, and are squashed by invalidations meanwhile.
	SLFSpec370
	// SLFSoS370 is the paper's source-of-speculation insight without the
	// key: SLF loads retire freely, closing the retire gate behind them;
	// the gate reopens when the store buffer becomes empty.
	SLFSoS370
	// SLFSoSKey370 is the paper's full proposal: the retiring SLF load
	// locks the gate with the key of its forwarding store, and the gate
	// reopens as soon as that particular store writes to the L1.
	SLFSoSKey370
	// Louvre370 layers Louvre-style versioned ordering (Kumar et al.) on
	// the keyed machine: loads issue speculatively past in-flight fences
	// instead of stalling, remain squashable by invalidations until the
	// fence retires, and in-order retirement discharges the version check.
	Louvre370
	// RCP370 rides a reversible-coherence idea (Wu et al.) on the keyed
	// machine: loads that are speculative at issue time read the hierarchy
	// without changing coherence state and are value-validated against
	// memory at retirement, squashing on mismatch.
	RCP370
)

// Enforce is how a machine treats a load that forwards from a store still
// in limbo (in the SQ/SB, not yet written to the L1): the one question on
// which the paper's five machines differ.
type Enforce uint8

const (
	// EnforceNone leaves the load alone (x86-TSO): no store atomicity.
	EnforceNone Enforce = iota
	// EnforceBlanket makes the load wait for the store's L1 write instead
	// of forwarding (IBM 370, Section II-C).
	EnforceBlanket
	// EnforceSLFSpec lets the load forward but keeps it speculative,
	// squashable and unretired, until the store buffer drains.
	EnforceSLFSpec
	// EnforceGate lets the load forward and retire, closing the retire
	// gate behind it; younger loads are SA-speculative while the gate is
	// closed or an older SLF load's store is unwritten (Section IV).
	EnforceGate
)

// ModelInfo is one registered machine: its name, its definition and its
// summary. The registry drives every model-facing surface (String,
// StoreAtomic, AllModels, ModelNames, ParseModel and Config.Validate), and
// the core reads its machine's behaviour from the row, so a machine built
// from existing mechanisms is one row here.
type ModelInfo struct {
	// Name is the canonical spelling, as printed by Model.String and
	// accepted by ParseModel.
	Name string
	// Enforce is the machine's store-atomicity enforcement.
	Enforce Enforce
	// KeyedGate locks a closed gate with the forwarding store's key, so it
	// reopens at that store's L1 write; an unkeyed gate reopens when the
	// store buffer drains. Only EnforceGate reads it.
	KeyedGate bool
	// PastFences lets loads issue past an in-flight fence; they stay
	// squashable until the fence retires (Louvre's versioned ordering).
	PastFences bool
	// Invisible sends a load that is speculative at issue down the
	// hierarchy's invisible read path and value-validates it at
	// retirement (RCP).
	Invisible bool
	// Paper marks the five machines evaluated in the source paper; the
	// refactor-equivalence goldens pin exactly these.
	Paper bool
	// Doc is a one-line summary for -list-models and docs.
	Doc string
}

var registry = [...]ModelInfo{
	X86: {Name: "x86", Enforce: EnforceNone, Paper: true,
		Doc: "non-store-atomic x86-TSO baseline: unrestricted SLF, free retirement"},
	NoSpec370: {Name: "370-NoSpec", Enforce: EnforceBlanket, Paper: true,
		Doc: "blanket enforcement: loads matching an SQ/SB store wait for its L1 write"},
	SLFSpec370: {Name: "370-SLFSpec", Enforce: EnforceSLFSpec, Paper: true,
		Doc: "SC-like speculation: SLF loads perform early but retire only after SB drain"},
	SLFSoS370: {Name: "370-SLFSoS", Enforce: EnforceGate, Paper: true,
		Doc: "source-of-speculation: retiring SLF load closes the gate until the SB drains"},
	SLFSoSKey370: {Name: "370-SLFSoS-key", Enforce: EnforceGate, KeyedGate: true, Paper: true,
		Doc: "keyed gate: reopens as soon as the forwarding store writes to the L1"},
	Louvre370: {Name: "370-Louvre", Enforce: EnforceGate, KeyedGate: true, PastFences: true,
		Doc: "versioned ordering: loads issue past in-flight fences, squashable until the fence retires"},
	RCP370: {Name: "370-RCP", Enforce: EnforceGate, KeyedGate: true, Invisible: true,
		Doc: "reversible coherence: speculative loads read invisibly, value-validated at retirement"},
}

// Info returns the registry entry for the model and whether it exists.
func (m Model) Info() (ModelInfo, bool) {
	if int(m) >= 0 && int(m) < len(registry) {
		return registry[m], true
	}
	return ModelInfo{}, false
}

// String returns the machine's canonical name.
func (m Model) String() string {
	if info, ok := m.Info(); ok {
		return info.Name
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// StoreAtomic reports whether the model guarantees store atomicity (MCA):
// whether it enforces it at all.
func (m Model) StoreAtomic() bool {
	info, _ := m.Info()
	return info.Enforce != EnforceNone
}

// AllModels lists every registered machine in registry order.
func AllModels() []Model {
	out := make([]Model, len(registry))
	for i := range registry {
		out[i] = Model(i)
	}
	return out
}

// PaperModels lists the five machines evaluated in the source paper, in
// the paper's order — the set the hot-path and policy equivalence goldens
// pin byte-identically across refactors.
func PaperModels() []Model {
	var out []Model
	for i := range registry {
		if registry[i].Paper {
			out = append(out, Model(i))
		}
	}
	return out
}

// ModelNames lists every registered machine name in registry order — the
// spellings ParseModel accepts.
func ModelNames() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].Name
	}
	return out
}

// ParseModel parses a model name as printed by Model.String ("x86",
// "370-NoSpec", ...); the error for an unknown name lists every valid one.
func ParseModel(s string) (Model, error) {
	for m := range registry {
		if s == registry[m].Name {
			return Model(m), nil
		}
	}
	return 0, fmt.Errorf("config: unknown model %q (want %s)", s, strings.Join(ModelNames(), ", "))
}

// ParseModels parses a -models flag value: "all" selects every registered
// machine, "none" (or empty) selects none, and otherwise a comma-separated
// list of machine names is parsed with ParseModel; unknown names are
// rejected with the valid list.
func ParseModels(spec string) ([]Model, error) {
	switch spec {
	case "all":
		return AllModels(), nil
	case "none", "":
		return nil, nil
	}
	var models []Model
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := ParseModel(name)
		if err != nil {
			return nil, fmt.Errorf("config: unknown model %q (want all, none, or a comma list of %s)",
				name, strings.Join(ModelNames(), ", "))
		}
		models = append(models, m)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("config: model list %q selects no models", spec)
	}
	return models, nil
}

// ListModels renders the registered machine roster, one "name  summary"
// line per machine in registry order — the shared body of the -list-models
// flag on every model-taking binary.
func ListModels() string {
	width := 0
	for i := range registry {
		if len(registry[i].Name) > width {
			width = len(registry[i].Name)
		}
	}
	var b strings.Builder
	for i := range registry {
		fmt.Fprintf(&b, "%-*s  %s\n", width, registry[i].Name, registry[i].Doc)
	}
	return b.String()
}

// StepMode selects how the machine advances its simulation clock.
type StepMode int

const (
	// StepSkip is the default two-level clock: when every core reports a
	// quiescent cycle the machine jumps straight to the next pending
	// event or core wake cycle, bulk-accounting the skipped range. Its
	// observable outputs (stats, traces, histograms, interval metrics)
	// are byte-identical to StepNaive.
	StepSkip StepMode = iota
	// StepNaive ticks every core on every cycle — the reference stepper
	// the skip path is validated against.
	StepNaive
)

var stepModeNames = [...]string{
	StepSkip:  "skip",
	StepNaive: "naive",
}

// String names the mode: "skip" or "naive".
func (m StepMode) String() string {
	if int(m) >= 0 && int(m) < len(stepModeNames) {
		return stepModeNames[m]
	}
	return fmt.Sprintf("step-mode(%d)", int(m))
}

// Core holds the out-of-order core parameters (Table III, top).
type Core struct {
	// Width is the dispatch and retire width in instructions per cycle.
	Width int
	// ROBEntries is the reorder-buffer capacity.
	ROBEntries int
	// LQEntries is the load-queue capacity.
	LQEntries int
	// SQEntries is the combined store-queue + store-buffer capacity. The
	// SQ and SB are a single physical structure; the division is the
	// retirement pointer (Section II-A).
	SQEntries int
	// BranchMispredictPenalty is the front-end redirect latency in cycles
	// charged when a branch resolves mispredicted.
	BranchMispredictPenalty int
	// SquashRefillPenalty is charged when speculative loads are squashed
	// by an invalidation and the pipeline refills from the squashed load.
	SquashRefillPenalty int
	// PipelineDepth is the minimum dispatch-to-retire latency in cycles,
	// modelling the front-end and commit stages a real pipeline has
	// between rename and retirement.
	PipelineDepth int
}

// Cache holds the geometry and latency of one cache level.
type Cache struct {
	SizeBytes int
	Ways      int
	LineBytes int
	HitCycles int
}

// Sets returns the number of sets of the cache.
func (c Cache) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Memory holds the memory-hierarchy parameters (Table III, middle).
type Memory struct {
	L1D Cache
	L2  Cache
	// L3 describes one bank; there are L3Banks of them.
	L3      Cache
	L3Banks int
	// DirectoryWays and DirectoryCoverage describe the sparse directory:
	// coverage is a multiple of aggregate L2 capacity (2.0 = 200%).
	DirectoryWays     int
	DirectoryCoverage float64
	// MemCycles is the DRAM access latency.
	MemCycles int
	// StridePrefetch enables the L1 stride prefetcher.
	StridePrefetch bool
	// RFOPrefetch enables read-for-ownership prefetching at store
	// execution (as x86 cores do); disabling it is the ablation that
	// exposes every store miss serially in the SB drain.
	RFOPrefetch bool
}

// NoC holds the interconnect parameters (Table III, bottom). The topology is
// fully connected, so every hop is one switch-to-switch traversal.
type NoC struct {
	SwitchLatency int // cycles per switch-to-switch hop
	ControlFlits  int
	DataFlits     int
	FlitCycles    int // cycles of serialization per flit
}

// ControlLatency is the one-way latency of a control message.
func (n NoC) ControlLatency() int { return n.SwitchLatency + n.ControlFlits*n.FlitCycles }

// DataLatency is the one-way latency of a data message.
func (n NoC) DataLatency() int { return n.SwitchLatency + n.DataFlits*n.FlitCycles }

// Config is the full machine configuration.
type Config struct {
	Cores int
	Model Model
	Core  Core
	Mem   Memory
	NoC   NoC
	// JitterSeed and Jitter add a deterministic pseudo-random 0..Jitter
	// cycle perturbation to memory-system event latencies. Zero disables
	// it. Litmus witness search uses it to explore interleavings.
	Jitter     int
	JitterSeed uint64
	// StepMode selects the clock stepper; the zero value is StepSkip.
	// StepNaive is the oracle the skip clock is checked against, so only
	// tests and the benchmark set it.
	StepMode StepMode
}

// Skylake returns the Table III configuration with the given core count and
// consistency model.
func Skylake(cores int, model Model) Config {
	return Config{
		Cores: cores,
		Model: model,
		Core: Core{
			Width:                   5,
			ROBEntries:              224,
			LQEntries:               72,
			SQEntries:               56,
			BranchMispredictPenalty: 14,
			SquashRefillPenalty:     12,
			PipelineDepth:           12,
		},
		Mem: Memory{
			L1D:               Cache{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, HitCycles: 4},
			L2:                Cache{SizeBytes: 128 << 10, Ways: 8, LineBytes: 64, HitCycles: 12},
			L3:                Cache{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, HitCycles: 35},
			L3Banks:           8,
			DirectoryWays:     8,
			DirectoryCoverage: 2.0,
			MemCycles:         160,
			StridePrefetch:    true,
			RFOPrefetch:       true,
		},
		NoC: NoC{SwitchLatency: 6, ControlFlits: 1, DataFlits: 5, FlitCycles: 1},
	}
}

// Default returns the paper's evaluated machine: 8 Skylake-like cores.
func Default(model Model) Config { return Skylake(8, model) }

// Small returns a scaled-down configuration useful for fast unit tests: the
// same structure with tiny caches so that evictions and misses are easy to
// provoke.
func Small(cores int, model Model) Config {
	c := Skylake(cores, model)
	c.Core.ROBEntries = 32
	c.Core.LQEntries = 12
	c.Core.SQEntries = 8
	c.Mem.L1D = Cache{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitCycles: 4}
	c.Mem.L2 = Cache{SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitCycles: 12}
	c.Mem.L3 = Cache{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, HitCycles: 35}
	c.Mem.L3Banks = 2
	return c
}

// MaxCores bounds a machine's cores: the directory keeps each line's
// sharers in a 64-bit set and its owner in an int8.
const MaxCores = 64

// MinLineBytes is the smallest cache line the hierarchy can represent. A
// line holds at least one 8-byte word, so that one line's coherence covers
// every byte a word access touches, and a line address leaves the three low
// bits a cache array packs its state and dirty flag into.
const MinLineBytes = 8

// Validate checks the configuration for structural consistency and for the
// geometry the hierarchy can represent: at most MaxCores cores, and lines of
// a power of two of at least MinLineBytes bytes.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > MaxCores {
		return fmt.Errorf("config: cores must be in 1..%d, got %d", MaxCores, c.Cores)
	}
	if _, ok := c.Model.Info(); !ok {
		return fmt.Errorf("config: unknown model %d (want %s)", int(c.Model), strings.Join(ModelNames(), ", "))
	}
	if c.Core.Width <= 0 || c.Core.ROBEntries <= 0 || c.Core.LQEntries <= 0 || c.Core.SQEntries <= 0 {
		return fmt.Errorf("config: core structure sizes must be positive: %+v", c.Core)
	}
	if c.Core.BranchMispredictPenalty < 0 || c.Core.SquashRefillPenalty < 0 || c.Core.PipelineDepth < 0 {
		return fmt.Errorf("config: core latencies and penalties must be non-negative: %+v", c.Core)
	}
	if c.Core.ROBEntries < c.Core.LQEntries && c.Core.ROBEntries < c.Core.SQEntries {
		return fmt.Errorf("config: ROB (%d) smaller than both LQ (%d) and SQ (%d)",
			c.Core.ROBEntries, c.Core.LQEntries, c.Core.SQEntries)
	}
	for _, cc := range []struct {
		name string
		c    Cache
	}{{"L1D", c.Mem.L1D}, {"L2", c.Mem.L2}, {"L3", c.Mem.L3}} {
		// Negative sizes and ways can pass the divisibility and
		// power-of-two checks below together.
		if cc.c.LineBytes <= 0 || cc.c.Ways <= 0 || cc.c.SizeBytes <= 0 {
			return fmt.Errorf("config: %s geometry must be positive: %+v", cc.name, cc.c)
		}
		if cc.c.HitCycles < 0 {
			return fmt.Errorf("config: %s hit latency must be non-negative, got %d", cc.name, cc.c.HitCycles)
		}
		if cc.c.LineBytes < MinLineBytes || cc.c.LineBytes&(cc.c.LineBytes-1) != 0 {
			return fmt.Errorf("config: %s line size must be a power of two of at least %d bytes, got %d",
				cc.name, MinLineBytes, cc.c.LineBytes)
		}
		if cc.c.SizeBytes%(cc.c.Ways*cc.c.LineBytes) != 0 {
			return fmt.Errorf("config: %s size %d not divisible by ways*line", cc.name, cc.c.SizeBytes)
		}
		if cc.c.Sets()&(cc.c.Sets()-1) != 0 {
			return fmt.Errorf("config: %s sets %d not a power of two", cc.name, cc.c.Sets())
		}
	}
	if c.Mem.L1D.LineBytes != c.Mem.L2.LineBytes || c.Mem.L2.LineBytes != c.Mem.L3.LineBytes {
		return fmt.Errorf("config: mismatched line sizes")
	}
	if c.Mem.L3Banks <= 0 || c.Mem.L3Banks&(c.Mem.L3Banks-1) != 0 {
		return fmt.Errorf("config: L3 banks must be a positive power of two, got %d", c.Mem.L3Banks)
	}
	if c.Mem.MemCycles < 0 {
		return fmt.Errorf("config: memory latency must be non-negative, got %d", c.Mem.MemCycles)
	}
	if c.Mem.DirectoryWays <= 0 {
		return fmt.Errorf("config: directory ways must be positive, got %d", c.Mem.DirectoryWays)
	}
	if cov := c.Mem.DirectoryCoverage; !(cov > 0) || math.IsInf(cov, 1) {
		return fmt.Errorf("config: directory coverage must be a finite positive number, got %v", cov)
	}
	if c.NoC.SwitchLatency < 0 || c.NoC.ControlFlits <= 0 || c.NoC.DataFlits <= 0 {
		return fmt.Errorf("config: bad NoC parameters: %+v", c.NoC)
	}
	if c.Jitter < 0 {
		return fmt.Errorf("config: jitter must be non-negative, got %d", c.Jitter)
	}
	if c.StepMode != StepSkip && c.StepMode != StepNaive {
		return fmt.Errorf("config: unknown step mode %d", int(c.StepMode))
	}
	return nil
}

// GateStorageBits returns the extra storage the SLFSoS-key mechanism needs
// (Section IV-D): per-LQ-entry SLF bit + key, the retire-gate bit + key
// register, and one sorting bit per SB entry.
func (c Config) GateStorageBits() int {
	keyBits := bitsFor(c.Core.SQEntries) + 1 // position bits + sorting bit
	perLQ := 1 + keyBits                     // SLF bit + key copy
	gate := 1 + keyBits                      // open/closed bit + key register
	return c.Core.LQEntries*perLQ + gate + c.Core.SQEntries
}

func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}
