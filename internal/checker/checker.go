// Package checker is an exhaustive operational consistency checker: the
// analogue of the ConsistencyChecker tool the paper used to identify
// non-store-atomic behaviours of x86 (Section I, footnote 1).
//
// It enumerates every interleaving of a small multi-threaded program under
// an operational memory model — x86-TSO with store-to-load forwarding, the
// store-atomic 370 flavour of TSO, or SC — and collects the exact set of
// reachable final outcomes. The models follow the standard abstract-machine
// formulations (Sewell et al. for x86-TSO; the IBM 370 rule that a load
// matching a store-buffer entry cannot execute until that entry drains).
package checker

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sesa/internal/isa"
)

// Model selects the operational memory model.
type Model int

// The three operational models.
const (
	// X86TSO: FIFO store buffer per thread with store-to-load
	// forwarding. Write-atomic but not store-atomic (rMCA).
	X86TSO Model = iota
	// TSO370: FIFO store buffer per thread WITHOUT forwarding: a load
	// that matches a store-buffer entry blocks until the buffer drains at
	// least past the matching store. Store-atomic (MCA).
	TSO370
	// SC: no store buffer; every access goes directly to memory.
	SC
)

var modelNames = [...]string{"x86-TSO", "370-TSO", "SC"}

// String names the model.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// RegObs observes a register of a thread in the final state.
type RegObs struct {
	Thread int
	Reg    isa.Reg
	Name   string
}

// MemObs observes a memory location in the final state.
type MemObs struct {
	Addr uint64
	Name string
}

// Program is the checker's input: per-thread instruction sequences plus
// initial memory and the observables that define an outcome.
type Program struct {
	Threads []isa.Program
	Init    map[uint64]uint64
	Regs    []RegObs
	Mem     []MemObs
}

// Outcome is a canonical "name=v name=v ..." rendering of the observables.
type Outcome string

// OutcomeSet is the set of reachable outcomes.
type OutcomeSet map[Outcome]bool

// Sorted returns the outcomes in lexical order.
func (s OutcomeSet) Sorted() []Outcome {
	out := make([]Outcome, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether the outcome is in the set.
func (s OutcomeSet) Contains(o Outcome) bool { return s[o] }

// write is one store-buffer entry.
type write struct {
	addr uint64
	size uint8
	val  uint64
}

// threadState is the dynamic state of one thread.
type threadState struct {
	pc   int
	sb   []write
	regs [isa.NumRegs]uint64
}

// machineState is a full abstract-machine state.
type machineState struct {
	threads []threadState
	mem     map[uint64]uint64
}

func (st *machineState) clone() *machineState {
	n := &machineState{
		threads: make([]threadState, len(st.threads)),
		mem:     make(map[uint64]uint64, len(st.mem)),
	}
	for i, t := range st.threads {
		n.threads[i] = threadState{pc: t.pc, regs: t.regs}
		n.threads[i].sb = append([]write(nil), t.sb...)
	}
	for k, v := range st.mem {
		n.mem[k] = v
	}
	return n
}

// appendKey appends st's memo key to buf: per thread the pc, the SB's
// length and (addr, val) pairs and all registers, then memory's size and
// its (addr, val) pairs in address order, every value a uvarint. The lists
// are length-prefixed and the register count is fixed, so distinct states
// get distinct keys. It sorts memory's addresses in addrs, which it returns
// for reuse.
func (st *machineState) appendKey(buf []byte, addrs []uint64) ([]byte, []uint64) {
	for _, t := range st.threads {
		buf = binary.AppendUvarint(buf, uint64(t.pc))
		buf = binary.AppendUvarint(buf, uint64(len(t.sb)))
		for _, w := range t.sb {
			buf = binary.AppendUvarint(buf, w.addr)
			buf = binary.AppendUvarint(buf, w.val)
		}
		for _, v := range t.regs {
			buf = binary.AppendUvarint(buf, v)
		}
	}
	addrs = addrs[:0]
	for a := range st.mem {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.AppendUvarint(buf, a)
		buf = binary.AppendUvarint(buf, st.mem[a])
	}
	return buf, addrs
}

// readSB returns the newest store-buffer entry of t covering addr, if any.
func readSB(t *threadState, addr uint64) (uint64, bool) {
	for i := len(t.sb) - 1; i >= 0; i-- {
		if t.sb[i].addr == addr {
			return t.sb[i].val, true
		}
	}
	return 0, false
}

// Enumerate explores every interleaving of p under model m and returns the
// set of reachable final outcomes. Final states require all program
// counters at the end and all store buffers drained.
func Enumerate(p Program, m Model) OutcomeSet {
	init := &machineState{
		threads: make([]threadState, len(p.Threads)),
		mem:     make(map[uint64]uint64, len(p.Init)),
	}
	for a, v := range p.Init {
		init.mem[a] = v
	}

	outcomes := make(OutcomeSet)
	seen := make(map[string]bool)
	var key []byte
	var addrs []uint64
	var visit func(st *machineState)
	visit = func(st *machineState) {
		key, addrs = st.appendKey(key[:0], addrs)
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true

		final := true
		for ti := range st.threads {
			t := &st.threads[ti]

			// Drain transition: pop the SB head to memory.
			if len(t.sb) > 0 {
				final = false
				n := st.clone()
				w := n.threads[ti].sb[0]
				n.threads[ti].sb = n.threads[ti].sb[1:]
				n.mem[w.addr] = w.val
				visit(n)
			}

			// Execute transition.
			if t.pc < len(p.Threads[ti]) {
				final = false
				for _, n := range step(p, st, ti, m) {
					visit(n)
				}
			}
		}
		if final {
			outcomes[outcomeOf(p, st)] = true
		}
	}
	visit(init)
	return outcomes
}

// step returns the successor states of executing thread ti's next
// instruction, or none if the instruction is blocked under the model.
func step(p Program, st *machineState, ti int, m Model) []*machineState {
	t := &st.threads[ti]
	in := p.Threads[ti][t.pc]
	switch in.Op {
	case isa.OpStore:
		val := in.Imm
		if in.Src1 != isa.RegNone {
			val = t.regs[in.Src1]
		}
		n := st.clone()
		nt := &n.threads[ti]
		nt.pc++
		if m == SC {
			n.mem[in.Addr] = val
		} else {
			nt.sb = append(nt.sb, write{addr: in.Addr, size: in.EffSize(), val: val})
		}
		return []*machineState{n}

	case isa.OpLoad:
		var val uint64
		if v, hit := readSB(t, in.Addr); hit {
			switch m {
			case X86TSO:
				val = v // store-to-load forwarding
			case TSO370:
				// Store-atomic: blocked until the matching store
				// drains; the drain transitions make progress.
				return nil
			case SC:
				val = st.mem[in.Addr] // unreachable: SC has no SB
			}
		} else {
			val = st.mem[in.Addr]
		}
		n := st.clone()
		nt := &n.threads[ti]
		nt.pc++
		if in.Dst != isa.RegNone {
			nt.regs[in.Dst] = val
		}
		return []*machineState{n}

	case isa.OpFence:
		if len(t.sb) > 0 {
			return nil
		}
		n := st.clone()
		n.threads[ti].pc++
		return []*machineState{n}

	case isa.OpRMW:
		if len(t.sb) > 0 {
			return nil
		}
		n := st.clone()
		nt := &n.threads[ti]
		old := n.mem[in.Addr]
		n.mem[in.Addr] = old + in.Imm
		if in.Dst != isa.RegNone {
			nt.regs[in.Dst] = old
		}
		nt.pc++
		return []*machineState{n}

	case isa.OpALU:
		n := st.clone()
		nt := &n.threads[ti]
		var a, b uint64
		if in.Src1 != isa.RegNone {
			a = nt.regs[in.Src1]
		}
		if in.Src2 != isa.RegNone {
			b = nt.regs[in.Src2]
		}
		if in.Dst != isa.RegNone {
			nt.regs[in.Dst] = a + b + in.Imm
		}
		nt.pc++
		return []*machineState{n}

	case isa.OpNop, isa.OpBranch:
		n := st.clone()
		n.threads[ti].pc++
		return []*machineState{n}
	}
	return nil
}

// FinalState provides the observables of a finished execution; the timing
// simulator adapts to it so that simulator runs and checker enumerations
// render comparable outcomes.
type FinalState interface {
	Reg(thread int, r isa.Reg) uint64
	Mem(addr uint64) uint64
}

// RenderOutcome formats the program's observables read from st.
func RenderOutcome(p Program, st FinalState) Outcome {
	parts := make([]string, 0, len(p.Regs)+len(p.Mem))
	for _, r := range p.Regs {
		parts = append(parts, fmt.Sprintf("%s=%d", r.Name, st.Reg(r.Thread, r.Reg)))
	}
	for _, mo := range p.Mem {
		parts = append(parts, fmt.Sprintf("[%s]=%d", mo.Name, st.Mem(mo.Addr)))
	}
	return Outcome(strings.Join(parts, " "))
}

// machineFinal adapts a checker machineState to FinalState.
type machineFinal struct{ st *machineState }

func (m machineFinal) Reg(thread int, r isa.Reg) uint64 { return m.st.threads[thread].regs[r] }
func (m machineFinal) Mem(addr uint64) uint64           { return m.st.mem[addr] }

// outcomeOf renders the observables of a final state.
func outcomeOf(p Program, st *machineState) Outcome {
	return RenderOutcome(p, machineFinal{st})
}

// Compare returns the outcomes allowed under a but not under b: the
// behaviours a programmer would observe when moving from model b to the
// weaker model a. Comparing X86TSO against TSO370 reproduces the paper's
// consistency-checking workflow.
func Compare(p Program, a, b Model) []Outcome {
	oa := Enumerate(p, a)
	ob := Enumerate(p, b)
	var diff []Outcome
	for _, o := range oa.Sorted() {
		if !ob.Contains(o) {
			diff = append(diff, o)
		}
	}
	return diff
}
