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
	"strconv"
	"sync"

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

// machine is the one abstract-machine state an enumeration explores. A
// transition changes it in place and the visit undoes the change when it
// returns, so nothing is copied per transition.
type machine struct {
	p       Program
	m       Model
	threads []thread
	locs    []uint64 // the program's locations, in address order
	mem     []uint64 // each location's value
	seen    stateSet // the memo keys of the states visited
	key     []byte
	out     *Recorder
}

// thread is one thread's program, what is fixed about it, and its state.
type thread struct {
	prog    isa.Program
	loc     []int     // each instruction's location index (memory ops only)
	storeAt []int     // each store's location index, by store ordinal
	written []isa.Reg // the registers the thread writes
	pc      int
	// sb holds the values of the thread's stores in program order; the
	// store buffer is sb[head:], and sb's capacity is the store count.
	sb   []uint64
	head int
	regs [isa.NumRegs]uint64
}

// newMachine lowers p to its initial state under m. Its locations are the
// addresses the program's memory ops access.
func newMachine(p Program, m Model) *machine {
	var locs []uint64
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Op.IsMem() {
				locs = append(locs, in.Addr)
			}
		}
	}
	slices.Sort(locs)
	locs = slices.Compact(locs)

	x := &machine{
		p:       p,
		m:       m,
		threads: make([]thread, len(p.Threads)),
		locs:    locs,
		mem:     make([]uint64, len(locs)),
		out:     NewRecorder(p),
	}
	for li, a := range locs {
		x.mem[li] = p.Init[a]
	}
	for ti, th := range p.Threads {
		t := &x.threads[ti]
		t.prog = th
		t.loc = make([]int, len(th))
		var wrote [isa.NumRegs]bool
		for pc, in := range th {
			if in.Op.IsMem() {
				t.loc[pc], _ = slices.BinarySearch(locs, in.Addr)
			}
			if in.Op == isa.OpStore {
				t.storeAt = append(t.storeAt, t.loc[pc])
			}
			if (in.Op == isa.OpLoad || in.Op == isa.OpRMW || in.Op == isa.OpALU) &&
				in.Dst != isa.RegNone && !wrote[in.Dst] {
				wrote[in.Dst] = true
				t.written = append(t.written, in.Dst)
			}
		}
		t.sb = make([]uint64, 0, len(t.storeAt))
	}
	return x
}

// Reg is a register's value in the current state (FinalState).
func (x *machine) Reg(thread int, r isa.Reg) uint64 { return x.threads[thread].regs[r] }

// Mem is a location's value in the current state (FinalState). A location
// no memory op accesses keeps its initial value.
func (x *machine) Mem(addr uint64) uint64 {
	if i, ok := slices.BinarySearch(x.locs, addr); ok {
		return x.mem[i]
	}
	return x.p.Init[addr]
}

// appendKey rebuilds x.key, reusing its buffer, as the state's memo key:
// per thread the pc, the SB's head and length, the values of the stores
// not yet drained and the registers the thread writes; then every
// location's value. Each value is a uvarint. A store's location follows
// from its ordinal and the register and location lists are fixed by the
// program, so distinct states get distinct keys. Registers the thread
// never writes are 0 in every state, so leaving them out merges no states
// whose futures differ.
func (x *machine) appendKey() {
	key := x.key[:0]
	for ti := range x.threads {
		t := &x.threads[ti]
		key = binary.AppendUvarint(key, uint64(t.pc))
		key = binary.AppendUvarint(key, uint64(t.head))
		key = binary.AppendUvarint(key, uint64(len(t.sb)))
		for _, v := range t.sb[t.head:] {
			key = binary.AppendUvarint(key, v)
		}
		for _, r := range t.written {
			key = binary.AppendUvarint(key, t.regs[r])
		}
	}
	for _, v := range x.mem {
		key = binary.AppendUvarint(key, v)
	}
	x.key = key
}

// forwarded returns the newest store-buffer entry of t for location li, if
// any.
func (t *thread) forwarded(li int) (uint64, bool) {
	for i := len(t.sb) - 1; i >= t.head; i-- {
		if t.storeAt[i] == li {
			return t.sb[i], true
		}
	}
	return 0, false
}

// memo is the storage an enumeration's search keeps beside its machine
// state: the visited-state set and the key buffer.
type memo struct {
	seen stateSet
	key  []byte
}

// memos holds the memos of finished enumerations, emptied, for later ones to
// reuse: growing a new set was most of what an enumeration allocated.
var memos = sync.Pool{New: func() any { return new(memo) }}

// Enumerate explores every interleaving of p under model m and returns the
// set of reachable final outcomes. Final states require all program
// counters at the end and all store buffers drained.
func Enumerate(p Program, m Model) OutcomeSet {
	x := newMachine(p, m)
	mo := memos.Get().(*memo)
	x.seen, x.key = mo.seen, mo.key
	x.visit()
	x.seen.reset()
	mo.seen, mo.key = x.seen, x.key
	memos.Put(mo)
	return x.out.Outcomes()
}

// visit explores the current state's successors, unless the state was
// visited before, and records the outcome of a final state.
func (x *machine) visit() {
	x.appendKey()
	if !x.seen.add(x.key) {
		return
	}

	final := true
	for ti := range x.threads {
		t := &x.threads[ti]

		// Drain transition: pop the SB head to memory.
		if t.head < len(t.sb) {
			final = false
			li := t.storeAt[t.head]
			old := x.mem[li]
			x.mem[li] = t.sb[t.head]
			t.head++
			x.visit()
			t.head--
			x.mem[li] = old
		}

		// Execute transition.
		if t.pc < len(t.prog) {
			final = false
			x.step(t)
		}
	}
	if final {
		x.out.Record(x)
	}
}

// step executes thread t's next instruction and visits the resulting
// state, unless the instruction is blocked under the model; then it
// restores the state.
func (x *machine) step(t *thread) {
	in := t.prog[t.pc]
	li := t.loc[t.pc]
	switch in.Op {
	case isa.OpStore:
		val := in.Imm
		if in.Src1 != isa.RegNone {
			val = t.regs[in.Src1]
		}
		if x.m == SC {
			old := x.mem[li]
			x.mem[li] = val
			x.advance(t, isa.RegNone, 0)
			x.mem[li] = old
			return
		}
		t.sb = append(t.sb, val)
		x.advance(t, isa.RegNone, 0)
		t.sb = t.sb[:len(t.sb)-1]

	case isa.OpLoad:
		val := x.mem[li]
		if v, hit := t.forwarded(li); hit {
			if x.m == TSO370 {
				// Store-atomic: blocked until the matching store
				// drains; the drain transitions make progress.
				return
			}
			val = v // x86-TSO store-to-load forwarding (SC has no SB)
		}
		x.advance(t, in.Dst, val)

	case isa.OpFence:
		if t.head == len(t.sb) {
			x.advance(t, isa.RegNone, 0)
		}

	case isa.OpRMW:
		if t.head < len(t.sb) {
			return
		}
		old := x.mem[li]
		x.mem[li] = old + in.Imm
		x.advance(t, in.Dst, old)
		x.mem[li] = old

	case isa.OpALU:
		var a, b uint64
		if in.Src1 != isa.RegNone {
			a = t.regs[in.Src1]
		}
		if in.Src2 != isa.RegNone {
			b = t.regs[in.Src2]
		}
		x.advance(t, in.Dst, a+b+in.Imm)

	case isa.OpNop, isa.OpBranch:
		x.advance(t, isa.RegNone, 0)
	}
}

// advance writes val to register dst (none for RegNone), moves t past its
// instruction, visits the state and undoes both.
func (x *machine) advance(t *thread, dst isa.Reg, val uint64) {
	var old uint64
	if dst != isa.RegNone {
		old = t.regs[dst]
		t.regs[dst] = val
	}
	t.pc++
	x.visit()
	t.pc--
	if dst != isa.RegNone {
		t.regs[dst] = old
	}
}

// FinalState provides the observables of a finished execution; the timing
// simulator adapts to it so that simulator runs and checker enumerations
// render comparable outcomes.
type FinalState interface {
	Reg(thread int, r isa.Reg) uint64
	Mem(addr uint64) uint64
}

// RenderOutcome formats the program's observables read from st: each
// register as name=value, then each location as [name]=value, separated by
// single spaces, with values in decimal.
func RenderOutcome(p Program, st FinalState) Outcome {
	var buf [128]byte // most outcomes fit: the string is the one allocation
	b := buf[:0]
	for _, r := range p.Regs {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, r.Name...)
		b = append(b, '=')
		b = strconv.AppendUint(b, st.Reg(r.Thread, r.Reg), 10)
	}
	for _, mo := range p.Mem {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		b = append(b, mo.Name...)
		b = append(b, "]="...)
		b = strconv.AppendUint(b, st.Mem(mo.Addr), 10)
	}
	return Outcome(b)
}

// Recorder collects the outcomes of an enumeration's final states. Many
// final states share one outcome, so each is rendered only the first time
// its observed values occur.
type Recorder struct {
	p    Program
	out  OutcomeSet
	seen stateSet // the observed-value vectors already rendered
	key  []byte
}

// NewRecorder returns an empty recorder for p's observables.
func NewRecorder(p Program) *Recorder {
	return &Recorder{p: p, out: make(OutcomeSet)}
}

// Record adds the outcome of final state st.
func (r *Recorder) Record(st FinalState) {
	key := r.key[:0]
	for _, o := range r.p.Regs {
		key = binary.AppendUvarint(key, st.Reg(o.Thread, o.Reg))
	}
	for _, o := range r.p.Mem {
		key = binary.AppendUvarint(key, st.Mem(o.Addr))
	}
	r.key = key
	if r.seen.add(key) {
		r.out[RenderOutcome(r.p, st)] = true
	}
}

// Outcomes returns the set of recorded outcomes.
func (r *Recorder) Outcomes() OutcomeSet { return r.out }

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
