// Package sesa is a cycle-level reproduction of "Speculative Enforcement of
// Store Atomicity" (Ros & Kaxiras, MICRO 2020).
//
// It provides:
//
//   - a trace-driven multicore simulator with Skylake-like out-of-order
//     cores, a write-atomic MESI directory hierarchy and the paper's five
//     consistency-model implementations (x86, 370-NoSpec, 370-SLFSpec,
//     370-SLFSoS, 370-SLFSoS-key), built around SLF loads, SA-speculative
//     loads and the retire gate;
//   - an exhaustive operational consistency checker (x86-TSO, store-atomic
//     370 TSO, SC) that enumerates all outcomes of litmus programs;
//   - the paper's litmus tests (mp, n6, iriw, Figure 5, ...) runnable on
//     both engines;
//   - synthetic workload profiles for every benchmark in Table IV, and the
//     harnesses that regenerate the paper's tables and figures.
//
// Quick start:
//
//	sys, _ := sesa.NewSystem(sesa.DefaultConfig(sesa.SLFSoSKey370), "demo")
//	sys.LoadProgram(0, sesa.Program{
//		sesa.StoreImm(0x100, 1),
//		sesa.Load(1, 0x100), // forwarded: an SLF load
//	})
//	_ = sys.Run(1_000_000)
//	fmt.Println(sys.Core(0).RegValue(1))
package sesa

import (
	"context"

	"sesa/internal/config"
	"sesa/internal/core"
	"sesa/internal/isa"
	"sesa/internal/mem"
	"sesa/internal/sim"
	"sesa/internal/stats"
)

// Model selects the consistency-model implementation (Section V).
type Model = config.Model

// The machine roster: the paper's five evaluated machines, plus the
// machines built on the consistency-policy registry from related work.
const (
	X86          = config.X86
	NoSpec370    = config.NoSpec370
	SLFSpec370   = config.SLFSpec370
	SLFSoS370    = config.SLFSoS370
	SLFSoSKey370 = config.SLFSoSKey370
	Louvre370    = config.Louvre370
	RCP370       = config.RCP370
)

// AllModels lists every registered machine in registry order.
func AllModels() []Model { return config.AllModels() }

// PaperModels lists the five machines evaluated in the source paper, in
// the paper's order.
func PaperModels() []Model { return config.PaperModels() }

// Config is the machine configuration (Table III).
type Config = config.Config

// DefaultConfig returns the paper's evaluated machine: 8 Skylake-like cores
// with the Table III memory hierarchy.
func DefaultConfig(m Model) Config { return config.Default(m) }

// SkylakeConfig returns the Table III configuration with a custom core
// count.
func SkylakeConfig(cores int, m Model) Config { return config.Skylake(cores, m) }

// SmallConfig returns a scaled-down machine with tiny caches, useful for
// experimentation and tests that need to provoke evictions.
func SmallConfig(cores int, m Model) Config { return config.Small(cores, m) }

// StepMode selects how the machine advances its simulation clock; a machine
// reads it from Config.StepMode.
type StepMode = config.StepMode

// The two clock steppers: the default two-level skip clock, and the naive
// cycle-by-cycle reference it is byte-identical to.
const (
	StepSkip  = config.StepSkip
	StepNaive = config.StepNaive
)

// ParseModel parses a model name as printed by Model.String ("x86",
// "370-NoSpec", ...), the inverse used by flags and the sesa-serve job JSON.
func ParseModel(s string) (Model, error) { return config.ParseModel(s) }

// ParseModels parses a -models flag value: "all", "none" (or empty), or a
// comma-separated list of machine names.
func ParseModels(spec string) ([]Model, error) { return config.ParseModels(spec) }

// ModelNames lists every registered machine name in registry order — the
// spellings ParseModel accepts.
func ModelNames() []string { return config.ModelNames() }

// ListModels renders the machine roster with one-line policy summaries,
// the body of the -list-models flag on every model-taking binary.
func ListModels() string { return config.ListModels() }

// Program is a per-core instruction trace.
type Program = isa.Program

// Inst is one micro-operation.
type Inst = isa.Inst

// Reg names an architectural register.
type Reg = isa.Reg

// RegNone marks an unused register operand.
const RegNone = isa.RegNone

// Instruction constructors, re-exported from the micro-ISA.
var (
	// Load builds an 8-byte load from addr into dst.
	Load = isa.Load
	// StoreImm builds an 8-byte store of an immediate to addr.
	StoreImm = isa.StoreImm
	// StoreReg builds a store of a register to addr.
	StoreReg = isa.StoreReg
	// ALU builds dst = src1 + src2.
	ALU = isa.ALU
	// ALUImm builds dst = src1 + imm with extra latency.
	ALUImm = isa.ALUImm
	// Fence builds a full memory fence (mfence).
	Fence = isa.Fence
	// RMW builds an atomic fetch-and-add.
	RMW = isa.RMW
	// Branch builds a conditional branch with the trace outcome.
	Branch = isa.Branch
	// Nop builds a no-op.
	Nop = isa.Nop
)

// Stats aggregates a run's measurements; Characterization is one Table IV
// row derived from them.
type (
	Stats            = stats.Machine
	CoreStats        = stats.Core
	Characterization = stats.Characterization
)

// MemStats exposes the memory-hierarchy counters.
type MemStats = mem.Stats

// System is one simulated multicore machine.
type System struct {
	m *sim.Machine
}

// NewSystem builds a machine; workload names the run in statistics. Attach
// a tracer (events, interval metrics, latency histograms) with
// AttachTracer before Run.
func NewSystem(cfg Config, workload string) (*System, error) {
	m, err := sim.New(cfg, workload)
	if err != nil {
		return nil, err
	}
	return &System{m: m}, nil
}

// LoadProgram installs the trace for core i.
func (s *System) LoadProgram(i int, p Program) error { return s.m.SetProgram(i, p) }

// InitMemory sets an initial 8-byte value.
func (s *System) InitMemory(addr, val uint64) { s.m.InitMemory(addr, val) }

// ReadMemory reads the current memory-order value at addr.
func (s *System) ReadMemory(addr uint64) uint64 { return s.m.ReadMemory(addr) }

// Core returns core i for register inspection.
func (s *System) Core(i int) *core.Core { return s.m.Core(i) }

// Run executes until all cores finish or maxCycles elapse. It is
// RunContext with context.Background().
func (s *System) Run(maxCycles uint64) error { return s.m.Run(maxCycles) }

// RunContext is Run with cooperative cancellation: a canceled context stops
// the machine within ~1000 simulated steps and returns a *CanceledError
// wrapping the context's cause (errors.Is(err, context.Canceled) matches),
// with partial statistics readable — mirroring the timeout path.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) error {
	return s.m.RunContext(ctx, maxCycles)
}

// Cycles returns the machine execution time so far.
func (s *System) Cycles() uint64 { return s.m.Cycle() }

// Stats returns the run's statistics.
func (s *System) Stats() *Stats { return s.m.Stats }

// MemoryStats returns the memory-hierarchy counters.
func (s *System) MemoryStats() MemStats { return s.m.Hierarchy().Stats }

// GateStorageBits returns the hardware cost of the SLFSoS-key mechanism for
// a configuration (Section IV-D: 640 bits for the Table III machine).
func GateStorageBits(cfg Config) int { return cfg.GateStorageBits() }
