// Package axiomatic is a second, independent formulation of the memory
// models: the Alglave-style axiomatic framework the paper uses to explain
// n6 (Section III-A, "if store-to-load forwarding (rfi) enforces memory
// order, we have a cycle").
//
// A candidate execution assigns every read a writer (rf) and every location
// a total order of its writes (ws, write serialization). The execution is
// allowed when
//
//   - uniproc: po-loc ∪ rf ∪ ws ∪ fr is acyclic per location (coherence);
//
//   - atomicity: for an RMW, no other write to the location is ws-between
//     the read's source and the RMW's write;
//
//   - ghb: ppo ∪ ws ∪ fr ∪ grf is acyclic, where ppo is program order
//     minus store→load pairs (TSO) plus fence-restored edges, and grf is
//     the set of rf edges the model makes globally visible:
//
//     x86-TSO: only external rf (rfe) — a core may read its own
//     store early (read-own-write-early, rMCA);
//     370-TSO: all rf, including internal (rfi) — store atomicity:
//     the forwarded load is ordered after its store's
//     insertion, exactly the paper's cycle in Figure 2;
//     SC:      all rf, with ppo = full program order.
//
// Enumerate explores every candidate execution of a (straight-line) litmus
// program and returns the reachable final outcomes, rendered identically to
// the operational checker so the two engines can be compared outcome for
// outcome.
//
// Every relation is one uint64 row per memory event (bit j of row i is the
// edge i→j), so a program may have at most MaxEvents of them. Candidates
// are built one location at a time, in address order: the location's ws,
// then the rf of its reads, each read checked for a uniproc cycle as it is
// assigned. Pruning per location is exact because every uniproc edge joins
// two events of one location, and atomicity needs no search at all: once
// ws is fixed, an RMW's read takes the write just before the RMW's own
// write, or the initial value. Only a candidate coherent at every location
// is checked against ghb, and only one that passes gets values and an
// outcome.
package axiomatic

import (
	"fmt"
	"math/bits"
	"slices"

	"sesa/internal/checker"
	"sesa/internal/isa"
)

// Model selects the axiomatic model.
type Model int

// The three axiomatic models, mirroring the operational ones.
const (
	X86TSO Model = iota
	TSO370
	SC
)

var modelNames = [...]string{"x86-TSO(ax)", "370-TSO(ax)", "SC(ax)"}

// String names the model.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// MaxEvents is the most memory events (loads, stores and the two halves of
// each RMW) a program may have: one bit per event in a uint64 row.
const MaxEvents = 64

// event is one memory event. Events are numbered thread by thread in
// program order, so a thread's events are consecutive.
type event struct {
	thread int
	addr   uint64
	loc    int // index into enumerator.locs
	write  bool
	reg    isa.Reg // a read's destination register
	rmw    int     // the other half of an RMW, or -1
	fences int     // fences before the event in its thread
}

// location is one address and the events that access it.
type location struct {
	addr   uint64
	init   uint64
	writes []int  // event ids
	reads  []int  // event ids
	wmask  uint64 // the writes as a row
	order  []int  // the ws being enumerated, oldest write first
}

// enumerator holds one Enumerate call: the program's events, the relations
// fixed by the program, and the candidate being built.
type enumerator struct {
	prog  checker.Program
	model Model
	ev    []event
	locs  []location
	// thread[t] is the row of thread t's events; first[t] is its first
	// event id.
	thread []uint64
	first  []int

	// Fixed by the program and model: po-loc and ppo.
	poloc, ppo [MaxEvents]uint64
	// The candidate: ws from each write to the writes after it, rf from
	// each write to its readers, fr from each read to the writes after its
	// source.
	ws, rf, fr [MaxEvents]uint64
	src        [MaxEvents]int // each read's rf source, -1 for the initial value

	// Value propagation, reused by every allowed candidate.
	val  [MaxEvents]uint64
	regs [][isa.NumRegs]uint64
	pc   []int
	next []int // each thread's next event

	out *checker.Recorder
}

func bit(i int) uint64 { return 1 << uint(i) }

// Enumerate returns all outcomes of allowed candidate executions under m. It
// returns an error for a program with a branch or with more than MaxEvents
// memory events.
func Enumerate(p checker.Program, m Model) (checker.OutcomeSet, error) {
	x, err := newEnumerator(p, m)
	if err != nil {
		return nil, err
	}
	x.location(0)
	return x.out.Outcomes(), nil
}

// newEnumerator lowers a straight-line program to events and builds po-loc
// and the model's ppo. Branches are not supported (litmus programs are
// branch-free); ALU ops are evaluated during value propagation and fences
// only restore ppo edges, so neither is an event.
func newEnumerator(p checker.Program, m Model) (*enumerator, error) {
	x := &enumerator{
		prog:  p,
		model: m,
		regs:  make([][isa.NumRegs]uint64, len(p.Threads)),
		pc:    make([]int, len(p.Threads)),
		next:  make([]int, len(p.Threads)),
		out:   checker.NewRecorder(p),
	}
	for ti, th := range p.Threads {
		x.first = append(x.first, len(x.ev))
		fences := 0
		for _, in := range th {
			e := event{thread: ti, addr: in.Addr, rmw: -1, fences: fences}
			switch in.Op {
			case isa.OpLoad:
				e.reg = in.Dst
				x.ev = append(x.ev, e)
			case isa.OpStore:
				e.write = true
				x.ev = append(x.ev, e)
			case isa.OpRMW:
				r := len(x.ev)
				w := e
				e.reg, e.rmw = in.Dst, r+1
				w.write, w.rmw = true, r
				x.ev = append(x.ev, e, w)
			case isa.OpFence:
				fences++
			case isa.OpALU, isa.OpNop:
			default:
				return nil, fmt.Errorf("axiomatic: unsupported op %v", in.Op)
			}
		}
	}
	if len(x.ev) > MaxEvents {
		return nil, fmt.Errorf("axiomatic: program has %d memory events; the enumerator holds at most %d",
			len(x.ev), MaxEvents)
	}

	var addrs []uint64
	for _, e := range x.ev {
		addrs = append(addrs, e.addr)
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)
	x.locs = make([]location, len(addrs))
	for li, a := range addrs {
		x.locs[li] = location{addr: a, init: p.Init[a]}
	}
	x.thread = make([]uint64, len(p.Threads))
	for i := range x.ev {
		e := &x.ev[i]
		e.loc, _ = slices.BinarySearch(addrs, e.addr)
		l := &x.locs[e.loc]
		if e.write {
			l.writes = append(l.writes, i)
			l.wmask |= bit(i)
		} else {
			l.reads = append(l.reads, i)
		}
		x.thread[e.thread] |= bit(i)
	}
	for li := range x.locs {
		x.locs[li].order = make([]int, len(x.locs[li].writes))
	}

	for i := range x.ev {
		e := &x.ev[i]
		for j := i + 1; j < len(x.ev) && x.ev[j].thread == e.thread; j++ {
			f := &x.ev[j]
			if f.loc == e.loc {
				x.poloc[i] |= bit(j)
			}
			// TSO relaxes only store->load, and only with no fence
			// between - and never across an RMW: locked operations
			// drain the store buffer, so both halves of an RMW order
			// fully (as in the operational model, where an RMW runs
			// with an empty SB and writes memory directly).
			relaxed := m != SC && e.write && !f.write && e.rmw < 0 && f.rmw < 0 &&
				e.fences == f.fences
			if !relaxed {
				x.ppo[i] |= bit(j)
			}
		}
	}
	return x, nil
}

// location enumerates the candidates of locations li onward; past the last
// location it checks the complete candidate.
func (x *enumerator) location(li int) {
	if li == len(x.locs) {
		x.candidate()
		return
	}
	x.serialize(li, 0, 0)
}

// serialize enumerates location li's write serializations, placing one
// write per call. A write is placed only after the writes that precede it
// in program order: ws against po-loc is a two-edge uniproc cycle.
func (x *enumerator) serialize(li, n int, placed uint64) {
	l := &x.locs[li]
	if n < len(l.writes) {
		for _, w := range l.writes {
			earlier := x.thread[x.ev[w].thread] & l.wmask & (bit(w) - 1)
			if placed&bit(w) == 0 && earlier&^placed == 0 {
				l.order[n] = w
				x.serialize(li, n+1, placed|bit(w))
			}
		}
		return
	}
	after := uint64(0)
	for i := n - 1; i >= 0; i-- {
		w := l.order[i]
		x.ws[w] = after
		after |= bit(w)
		if r := x.ev[w].rmw; r >= 0 {
			// Atomicity: the RMW reads the write just before its own.
			x.src[r] = -1
			if i > 0 {
				x.src[r] = l.order[i-1]
			}
		}
	}
	x.readFrom(li, 0)
}

// readFrom enumerates the rf source of location li's read ri and the reads
// after it.
func (x *enumerator) readFrom(li, ri int) {
	l := &x.locs[li]
	if ri == len(l.reads) {
		x.location(li + 1)
		return
	}
	r := l.reads[ri]
	if x.ev[r].rmw >= 0 {
		x.tryRead(li, ri, x.src[r]) // fixed by ws
		return
	}
	x.tryRead(li, ri, -1)
	for _, w := range l.writes {
		x.tryRead(li, ri, w)
	}
}

// tryRead lets read ri of location li read from src (-1: the initial
// value) and goes on to the next read if the location stays coherent.
func (x *enumerator) tryRead(li, ri, src int) {
	l := &x.locs[li]
	r := l.reads[ri]
	x.src[r] = src
	x.fr[r] = l.wmask // every write is ws-after the initial value
	if src >= 0 {
		x.fr[r] = x.ws[src]
		x.rf[src] |= bit(r)
	}
	// The location was acyclic before r's edges, so a new cycle runs
	// through r.
	if !x.uniprocCycle(r) {
		x.readFrom(li, ri+1)
	}
	x.fr[r] = 0
	if src >= 0 {
		x.rf[src] &^= bit(r)
	}
}

// uniprocCycle reports whether event v reaches itself over po-loc, ws, rf
// and fr.
func (x *enumerator) uniprocCycle(v int) bool {
	var reached uint64
	frontier := x.poloc[v] | x.ws[v] | x.rf[v] | x.fr[v]
	for frontier != 0 {
		u := bits.TrailingZeros64(frontier)
		if u == v {
			return true
		}
		reached |= bit(u)
		frontier |= x.poloc[u] | x.ws[u] | x.rf[u] | x.fr[u]
		frontier &^= reached
	}
	return false
}

// candidate checks a candidate that is coherent at every location against
// the model's ghb and records its outcome if it is allowed.
func (x *enumerator) candidate() {
	var ghb [MaxEvents]uint64
	for i := range x.ev {
		// grf: rfe always; rfi only when the model enforces store
		// atomicity (370, SC) - the paper's Figure 2 cycle.
		grf := x.rf[i]
		if x.model == X86TSO {
			grf &^= x.thread[x.ev[i].thread] // rfe
		}
		ghb[i] = x.ppo[i] | x.ws[i] | x.fr[i] | grf
	}
	// Peel off events with no successor left; a cycle never empties.
	left := ^uint64(0) >> uint(MaxEvents-len(x.ev))
	for left != 0 {
		before := left
		for rest := left; rest != 0; {
			v := 63 - bits.LeadingZeros64(rest)
			rest &^= bit(v)
			if ghb[v]&left == 0 {
				left &^= bit(v)
			}
		}
		if left == before {
			return
		}
	}
	if x.propagate() {
		x.out.Record(x)
	}
}

// propagate computes every event's value from rf and the threads' register
// dataflow. A thread runs until a read whose source write has no value yet;
// the threads take turns until all are done. It reports false if they
// block one another, which a ghb-acyclic candidate never does.
func (x *enumerator) propagate() bool {
	clear(x.regs)
	clear(x.pc)
	copy(x.next, x.first)
	var done uint64 // writes with a value
	for {
		progress, finished := false, true
		for ti, th := range x.prog.Threads {
			regs := &x.regs[ti]
		run:
			for ; x.pc[ti] < len(th); x.pc[ti]++ {
				in := th[x.pc[ti]]
				e := x.next[ti]
				switch in.Op {
				case isa.OpLoad, isa.OpRMW:
					src := x.src[e]
					v := x.locs[x.ev[e].loc].init
					if src >= 0 {
						if done&bit(src) == 0 {
							break run
						}
						v = x.val[src]
					}
					x.val[e] = v
					if in.Dst != isa.RegNone {
						regs[in.Dst] = v
					}
					x.next[ti]++
					if in.Op == isa.OpRMW {
						x.val[e+1] = v + in.Imm
						done |= bit(e + 1)
						x.next[ti]++
					}
				case isa.OpStore:
					v := in.Imm
					if in.Src1 != isa.RegNone {
						v = regs[in.Src1]
					}
					x.val[e] = v
					done |= bit(e)
					x.next[ti]++
				case isa.OpALU:
					var a, b uint64
					if in.Src1 != isa.RegNone {
						a = regs[in.Src1]
					}
					if in.Src2 != isa.RegNone {
						b = regs[in.Src2]
					}
					if in.Dst != isa.RegNone {
						regs[in.Dst] = a + b + in.Imm
					}
				}
				progress = true
			}
			finished = finished && x.pc[ti] == len(th)
		}
		if finished || !progress {
			return finished
		}
	}
}

// Reg is the final value of a register: the value of the last read writing
// it in program order. Litmus observables always come from loads.
func (x *enumerator) Reg(thread int, r isa.Reg) uint64 {
	var v uint64
	for e := x.first[thread]; e < len(x.ev) && x.ev[e].thread == thread; e++ {
		if !x.ev[e].write && x.ev[e].reg == r {
			v = x.val[e]
		}
	}
	return v
}

// Mem is the final value of a location: its ws-last write's value.
func (x *enumerator) Mem(addr uint64) uint64 {
	for _, l := range x.locs {
		if l.addr == addr && len(l.order) > 0 {
			return x.val[l.order[len(l.order)-1]]
		}
	}
	return x.prog.Init[addr]
}
