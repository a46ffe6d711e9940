// Package isa defines the trace-driven micro-operation ISA executed by the
// out-of-order core model.
//
// The simulator is trace driven: a Program is a per-thread sequence of
// micro-ops with explicit register dependences and, for memory operations,
// explicit virtual addresses. Branch outcomes are part of the trace; the
// branch predictor decides only whether the front end predicted them
// correctly. This is the same level of abstraction used by the paper's
// Sniper-driven in-house core model.
package isa

import "fmt"

// Op enumerates micro-operation kinds.
type Op uint8

// Micro-operation kinds.
const (
	// OpALU is a register-to-register operation with a fixed latency.
	OpALU Op = iota
	// OpLoad reads Size bytes from Addr into Dst.
	OpLoad
	// OpStore writes the value of Src1 (or Imm if Src1 == RegNone) of Size
	// bytes to Addr.
	OpStore
	// OpBranch is a conditional branch; Taken records the trace outcome.
	OpBranch
	// OpFence is a full memory fence: it drains the store buffer and does
	// not retire until all earlier memory operations are performed. mfence
	// on x86, a serializing operation on 370.
	OpFence
	// OpRMW is an atomic read-modify-write (e.g. lock xadd, xchg). It acts
	// as a load and a store to Addr and has fence semantics on TSO
	// machines.
	OpRMW
	// OpNop occupies a ROB slot for one cycle and has no dependences.
	OpNop
)

var opNames = [...]string{
	OpALU:    "alu",
	OpLoad:   "ld",
	OpStore:  "st",
	OpBranch: "br",
	OpFence:  "fence",
	OpRMW:    "rmw",
	OpNop:    "nop",
}

// String returns the mnemonic for the operation kind.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the operation accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore || o == OpRMW }

// Reg identifies an architectural register in the micro-ISA. The register
// file is small; traces only need registers to express dependences and to
// observe litmus outcomes.
type Reg uint8

// RegNone marks an unused register operand.
const RegNone Reg = 0xFF

// NumRegs is the number of architectural registers.
const NumRegs = 32

// Inst is one micro-operation of a trace. The one-byte fields come first,
// so an instruction is 32 bytes.
type Inst struct {
	Op   Op
	Dst  Reg   // destination register (RegNone if none)
	Src1 Reg   // first source (store data for OpStore/OpRMW)
	Src2 Reg   // second source (RegNone if none)
	Size uint8 // access size in bytes (memory ops); 0 defaults to 8
	Lat  uint8 // extra execution latency for OpALU beyond 1 cycle
	// Taken is the trace outcome for OpBranch.
	Taken bool
	Addr  uint64 // virtual address for memory ops
	Imm   uint64 // immediate: store data when Src1==RegNone, ALU constant
	// PC is the (synthetic) program counter, used by the branch and
	// memory-dependence predictors for indexing.
	PC uint64
}

// EffSize returns the access size, defaulting to 8 bytes.
func (in Inst) EffSize() uint8 {
	if in.Size == 0 {
		return 8
	}
	return in.Size
}

// String renders the instruction in a compact assembly-like form.
func (in Inst) String() string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("ld r%d, [%#x]", in.Dst, in.Addr)
	case OpStore:
		if in.Src1 == RegNone {
			return fmt.Sprintf("st [%#x], %d", in.Addr, in.Imm)
		}
		return fmt.Sprintf("st [%#x], r%d", in.Addr, in.Src1)
	case OpRMW:
		return fmt.Sprintf("rmw r%d, [%#x]", in.Dst, in.Addr)
	case OpBranch:
		return fmt.Sprintf("br taken=%v", in.Taken)
	case OpFence:
		return "fence"
	case OpNop:
		return "nop"
	default:
		return fmt.Sprintf("alu r%d, r%d, r%d", in.Dst, in.Src1, in.Src2)
	}
}

// Program is a finite per-thread instruction sequence.
type Program []Inst

// Counts reports the number of loads, stores and branches in the program.
// OpRMW counts as both a load and a store.
func (p Program) Counts() (loads, stores, branches int) {
	for _, in := range p {
		switch in.Op {
		case OpLoad:
			loads++
		case OpStore:
			stores++
		case OpRMW:
			loads++
			stores++
		case OpBranch:
			branches++
		}
	}
	return
}

// Validate checks structural well-formedness of the program: register
// indices in range and memory operations carrying addresses aligned to their
// size.
func (p Program) Validate() error {
	for i, in := range p {
		if in.Dst != RegNone && in.Dst >= NumRegs {
			return fmt.Errorf("isa: inst %d (%s): dst register %d out of range", i, in, in.Dst)
		}
		if in.Src1 != RegNone && in.Src1 >= NumRegs {
			return fmt.Errorf("isa: inst %d (%s): src1 register %d out of range", i, in, in.Src1)
		}
		if in.Src2 != RegNone && in.Src2 >= NumRegs {
			return fmt.Errorf("isa: inst %d (%s): src2 register %d out of range", i, in, in.Src2)
		}
		if in.Op.IsMem() {
			sz := uint64(in.EffSize())
			if sz != 1 && sz != 2 && sz != 4 && sz != 8 {
				return fmt.Errorf("isa: inst %d (%s): unsupported size %d", i, in, sz)
			}
			if in.Addr%sz != 0 {
				return fmt.Errorf("isa: inst %d (%s): address %#x misaligned for size %d", i, in, in.Addr, sz)
			}
		}
	}
	return nil
}

// Convenience constructors used by litmus tests and workload generators.

// Load builds a load of 8 bytes from addr into dst.
func Load(dst Reg, addr uint64) Inst {
	return Inst{Op: OpLoad, Dst: dst, Src1: RegNone, Src2: RegNone, Addr: addr}
}

// StoreImm builds a store of the 8-byte immediate v to addr.
func StoreImm(addr uint64, v uint64) Inst {
	return Inst{Op: OpStore, Dst: RegNone, Src1: RegNone, Src2: RegNone, Addr: addr, Imm: v}
}

// StoreReg builds a store of register src to addr.
func StoreReg(addr uint64, src Reg) Inst {
	return Inst{Op: OpStore, Dst: RegNone, Src1: src, Src2: RegNone, Addr: addr}
}

// ALU builds a single-cycle register operation dst = f(src1, src2).
func ALU(dst, src1, src2 Reg) Inst {
	return Inst{Op: OpALU, Dst: dst, Src1: src1, Src2: src2}
}

// ALUImm builds dst = src1 + imm with the given extra latency.
func ALUImm(dst, src1 Reg, imm uint64, lat uint8) Inst {
	return Inst{Op: OpALU, Dst: dst, Src1: src1, Src2: RegNone, Imm: imm, Lat: lat}
}

// Fence builds a full memory fence.
func Fence() Inst {
	return Inst{Op: OpFence, Dst: RegNone, Src1: RegNone, Src2: RegNone}
}

// RMW builds an atomic fetch-and-add of imm at addr, old value into dst.
func RMW(dst Reg, addr uint64, imm uint64) Inst {
	return Inst{Op: OpRMW, Dst: dst, Src1: RegNone, Src2: RegNone, Addr: addr, Imm: imm}
}

// Branch builds a conditional branch with the given trace outcome.
func Branch(pc uint64, taken bool) Inst {
	return Inst{Op: OpBranch, Dst: RegNone, Src1: RegNone, Src2: RegNone, PC: pc, Taken: taken}
}

// Nop builds a no-op.
func Nop() Inst {
	return Inst{Op: OpNop, Dst: RegNone, Src1: RegNone, Src2: RegNone}
}
