// Package core implements the Skylake-like out-of-order core of Table III
// and the paper's primary contribution: speculative enforcement of store
// atomicity through SLF loads, SA-speculative loads and the retire gate
// (Section IV).
//
// The core is trace driven. Every cycle it retires up to Width instructions
// (subject to the consistency-model policy and the retire gate), drains the
// store buffer, issues ready instructions, and dispatches up to Width new
// instructions from the trace into the ROB/LQ/SQ. Invalidation and eviction
// messages from the memory hierarchy snoop the load queue and squash
// performed speculative loads, exactly the squash-and-reexecute discipline
// the paper builds on.
//
// In-flight instructions live in a per-core entry arena: a fixed-capacity
// dense slice indexed by generation-tagged entryRef handles instead of a
// heap-allocated, pointer-linked graph. The hot per-entry scalars scanned
// every cycle (status, execDone, minRetire, lineAddr, inflight) are split
// into struct-of-arrays siblings of the arena so the retire/issue/wake
// scans walk a few cache lines instead of chasing pointers.
package core

import (
	"sesa/internal/isa"
)

// status tracks an entry's progress through the pipeline.
type status uint8

const (
	// stDispatched: in the ROB, waiting for operands.
	stDispatched status = iota
	// stIssued: executing (ALU latency, memory access in flight, or
	// waiting on a store-forwarding condition).
	stIssued
	// stDone: result available (loads: performed; stores: address and
	// data ready; branches: resolved).
	stDone
	// stRetired: left the ROB. Only stores linger afterwards, in the SB
	// portion of their SQ/SB slot, until they write to the L1.
	stRetired
)

// entryRef is a generation-tagged handle to an arena slot: slot index plus
// one in the high half, the slot's generation at hand-out in the low half.
// The zero value is the nil reference. A slot's generation is bumped every
// time it is freed, so a ref held across retirement, squash, or an L1-write
// event detects staleness with one compare — replacing the old layout's
// `alive` flag and pointer identity. Because squashes flush a contiguous
// youngest suffix and retirement is in order, a stale ref from a live entry
// always means "that instruction retired (or its store wrote to the L1)",
// never "an unrelated instruction reused the slot under me".
type entryRef uint64

// nilRef is the null entry reference.
const nilRef entryRef = 0

func makeRef(idx int32, gen uint32) entryRef {
	return entryRef(uint64(idx+1)<<32 | uint64(gen))
}

// index returns the arena slot, or -1 for nilRef.
func (r entryRef) index() int32 { return int32(r>>32) - 1 }

// gen returns the generation the ref was minted with.
func (r entryRef) gen() uint32 { return uint32(r) }

// entry is one in-flight instruction: a ROB entry, plus the LQ or SQ/SB
// fields when it is a memory operation. The per-cycle-scanned scalars
// (status, execDone, minRetire, lineAddr, inflight) live in the arena's
// struct-of-arrays siblings, not here.
type entry struct {
	inst     isa.Inst
	traceIdx int    // index in the core's program
	dynSeq   uint64 // per-core dynamic sequence number (re-execution gets a new one)

	// Operand tracking. A nil producer means the value was captured at
	// dispatch time. A stale producer ref means the producer retired; its
	// value is then the architectural register value (in-order retirement
	// guarantees no intervening writer — see Core.operandVal).
	src1Prod entryRef
	src2Prod entryRef
	src1Val  uint64
	src2Val  uint64

	val uint64 // result: load value, ALU result, RMW old value

	// Load fields.
	slf      bool     // performed by store-to-load forwarding
	slfStore entryRef // forwarding store (nilRef if !slf); stale once it wrote to the L1
	// slfStoreSeq snapshots the forwarding store's dynSeq at forwarding
	// time, so the dependence-violation shadow check works after the
	// store's slot is recycled.
	slfStoreSeq uint64
	slfKey      key // copy of the forwarding store's SQ/SB key
	// waitStore, when non-nil, blocks the load until that store drains
	// (370-NoSpec store-atomicity blocking, or a partial-overlap
	// forwarding block). A stale ref means the store wrote: unblocked.
	waitStore entryRef
	// waitAddr, when non-nil, blocks the load until that store's address
	// resolves (StoreSet predicted dependence, or blanket waiting in
	// 370-NoSpec).
	waitAddr entryRef
	// fenceBarrier is the youngest older fence at dispatch time; the load
	// may not issue until it retires (mfence ordering; Louvre issues past
	// it and stays squashable instead). A stale ref is a retired fence:
	// no barrier.
	fenceBarrier entryRef
	// parkedOn is the entry this one is parked on, out of the issue
	// stage's ready set until that entry completes or writes to the L1
	// (see Core.park); nilRef when it is not parked.
	parkedOn entryRef
	// invisible marks a load that performed without touching directory or
	// cache state (370-RCP); it must value-validate at retirement.
	invisible bool

	// gateStalled marks that this load has already been counted as a
	// gate stall (or an SLFSpec retire wait) at the ROB head.
	gateStalled bool
	// noSpecWaited marks that the load was counted as a 370-NoSpec
	// blanket-enforcement wait.
	noSpecWaited bool

	// Branch fields.
	predWrong bool // the front end mispredicted this branch

	// Store fields.
	addrResolved bool // address resolution (and violation check) done
	sqSlot       int  // SQ/SB slot index
	sqKey        key  // slot + sorting bit
	writtenL1    bool // store has written to the L1 (inserted in memory order)

	// age is a load's or store's position against the other queue,
	// recorded at dispatch: for a load, the SQ's allocation count (the
	// stores older than it); for a store, the LQ's push count (the loads
	// older than it). Each kind reads only its own meaning. The counts
	// never exceed the trace's loads or stores, so 32 bits suffice, and
	// the field fills padding.
	age int32
	// retiredAt is the cycle the store retired into the SB portion of its
	// slot; the SBResidency histogram measures from here to the L1 write.
	retiredAt uint64
}

// isLoad reports whether the entry occupies a load-queue slot.
func (e *entry) isLoad() bool { return e.inst.Op == isa.OpLoad }

// isStore reports whether the entry occupies an SQ/SB slot.
func (e *entry) isStore() bool { return e.inst.Op == isa.OpStore }

// arena is the per-core entry pool: every in-flight instruction occupies one
// slot of the dense ents slice, handed out and reclaimed through a free
// list. Capacity is min(ROBEntries+SQEntries, len(program)) — the ROB bound
// plus retired stores lingering in the SB, capped by the trace length (see
// Core.SetProgram) — so allocation can never fail. The parallel
// stat/execDone/minRetire/lineAddr/inflight arrays are the struct-of-arrays
// split of the fields the per-cycle scans touch.
type arena struct {
	ents []entry
	gens []uint32
	free []int32

	stat      []status
	execDone  []uint64
	minRetire []uint64
	lineAddr  []uint64
	inflight  []bool
}

// resize makes the arena capacity slots, every one free with generation 0,
// reusing its storage when that is large enough. A slot's other fields are
// left as they are: alloc zeroes a slot before handing it out, and only
// slots handed out are read.
func (a *arena) resize(capacity int) {
	*a = arena{
		ents:      sized(a.ents, capacity),
		gens:      sized(a.gens, capacity),
		free:      sized(a.free, capacity),
		stat:      sized(a.stat, capacity),
		execDone:  sized(a.execDone, capacity),
		minRetire: sized(a.minRetire, capacity),
		lineAddr:  sized(a.lineAddr, capacity),
		inflight:  sized(a.inflight, capacity),
	}
	clear(a.gens)
	// Stack the free list so the first allocations come out in ascending
	// slot order (pure locality; slot choice is never observable).
	for i := range a.free {
		a.free[i] = int32(capacity - 1 - i)
	}
}

// sized returns s resliced to length n when its capacity allows, and a new
// zeroed slice of length n otherwise.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// alloc hands out a zeroed slot.
func (a *arena) alloc() int32 {
	n := len(a.free)
	if n == 0 {
		panic("core: entry arena exhausted")
	}
	i := a.free[n-1]
	a.free = a.free[:n-1]
	a.ents[i] = entry{}
	a.stat[i] = stDispatched
	a.execDone[i] = 0
	a.minRetire[i] = 0
	a.lineAddr[i] = 0
	a.inflight[i] = false
	return i
}

// release reclaims a slot, invalidating every outstanding ref to it.
func (a *arena) release(i int32) {
	a.gens[i]++
	a.free = append(a.free, i)
}

// refOf mints the current-generation ref for slot i.
func (a *arena) refOf(i int32) entryRef { return makeRef(i, a.gens[i]) }

// live reports whether r still names its original entry.
func (a *arena) live(r entryRef) bool {
	i := r.index()
	return i >= 0 && a.gens[i] == r.gen()
}

// addrKnown reports whether the memory address is resolved. Addresses come
// from the trace but become known only when the address-dependency register
// (Src2) is available, modelling address generation. A stale producer
// retired, so the address is known.
func (a *arena) addrKnown(e *entry) bool {
	p := e.src2Prod
	if e.inst.Src2 == isa.RegNone || p == nilRef {
		return true
	}
	if i := p.index(); a.gens[i] == p.gen() {
		return a.stat[i] >= stDone
	}
	return true
}

// dataKnown reports whether a store's data operand is available.
func (a *arena) dataKnown(e *entry) bool {
	p := e.src1Prod
	if e.inst.Src1 == isa.RegNone || p == nilRef {
		return true
	}
	if i := p.index(); a.gens[i] == p.gen() {
		return a.stat[i] >= stDone
	}
	return true
}

// overlaps reports whether two memory operations touch overlapping bytes.
func overlaps(a, b *entry) bool {
	as, ae := a.inst.Addr, a.inst.Addr+uint64(a.inst.EffSize())
	bs, be := b.inst.Addr, b.inst.Addr+uint64(b.inst.EffSize())
	return as < be && bs < ae
}

// contains reports whether store s fully covers load l's bytes, the
// condition for store-to-load forwarding.
func contains(s, l *entry) bool {
	return s.inst.Addr <= l.inst.Addr &&
		s.inst.Addr+uint64(s.inst.EffSize()) >= l.inst.Addr+uint64(l.inst.EffSize())
}

// forwardBytes extracts a load's bytes from a containing store's data
// value: data is the store's value at sAddr, and the load reads size bytes
// at lAddr.
func forwardBytes(data uint64, sAddr, lAddr uint64, size uint8) uint64 {
	v := data >> ((lAddr - sAddr) * 8)
	if size >= 8 {
		return v
	}
	return v & ((1 << (uint64(size) * 8)) - 1)
}
