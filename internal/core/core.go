package core

import (
	"fmt"
	"math/bits"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/isa"
	"sesa/internal/mem"
	"sesa/internal/obs"
	"sesa/internal/predictor"
	"sesa/internal/sched"
	"sesa/internal/stats"
)

// issueWidth caps how many instructions may begin execution per cycle
// (functional units).
const issueWidth = 8

// Core is one out-of-order core. It is driven by Tick, once per cycle,
// after the simulator has delivered the cycle's memory-system events.
type Core struct {
	id  int
	cfg config.Core
	// model is the machine's registry row: every decision the paper varies
	// per machine branches on its fields (see policy.go).
	model config.ModelInfo
	hier  *mem.Hierarchy
	st    *stats.Core

	bp *predictor.TAGE
	ss *predictor.StoreSet

	l1Lat int

	prog     isa.Program
	fetchIdx int
	dynSeq   uint64

	// ar is the entry arena every in-flight instruction lives in; rob, lq
	// and sq hold refs into it.
	ar  arena
	rob ring
	lq  ring
	sq  storeQueue

	regProd [isa.NumRegs]entryRef
	regVal  [isa.NumRegs]uint64

	gate Gate

	// redirectUntil blocks dispatch during branch-redirect or
	// squash-refill windows.
	redirectUntil uint64
	// haltBranch blocks dispatch until a mispredicted branch resolves.
	haltBranch entryRef
	// lastFence is the youngest in-flight fence; younger loads record it
	// as their issue barrier.
	lastFence entryRef
	// rmws holds in-flight atomic RMWs. An RMW bypasses the store queue, so
	// the SQ search can neither forward from it nor order a younger load
	// behind it; overlapping younger loads block here until the RMW
	// performs. The list compacts itself during the scan.
	rmws []entryRef
	// drainInflight and lastDrainWhen pipeline the SB drain while keeping
	// insertion in order.
	drainInflight int
	lastDrainWhen uint64

	// ready is the issue scan's work list, one bit per ROB ring position:
	// set exactly for the entries the scan acts on — dispatched entries
	// that are not parked, and entries executing locally (stIssued without
	// a memory access in flight, with a pending complete at execDone).
	ready bitset
	// waiting holds one ROB-position set per arena slot (len(ready) words
	// each): the entries parked on that entry (see park).
	waiting []uint64

	// wakeHints gates the wakeCycle scan. The two-level skip clock is the
	// only consumer of a quiescent tick's wake report; under the naive
	// stepper the value is registered but never read, so the machine turns
	// the scan off and Tick reports sched.Never instead.
	wakeHints bool

	// tr is the observability sink, events and histograms both; nil when
	// no tracer is attached, so every hook is one never-taken branch on the
	// disabled path.
	tr *obs.CoreTracer
	// gateClosedAt is the cycle the retire gate last closed, the start of
	// the episode the GateClosed histogram measures.
	gateClosedAt uint64

	// progressed flags any state mutation during the current Tick beyond
	// the per-cycle counter deltas recorded in delta; it is what Tick's
	// quiescence report is built from.
	progressed bool
	delta      tickDelta

	// asleep marks a core whose last full tick was quiescent with wake
	// hints on: until cycle sleepUntil, or until a client callback wakes it,
	// each Tick replays delta instead of running the pipeline (DESIGN.md
	// §5c).
	asleep     bool
	sleepUntil uint64

	// lqLines is the LQ snoop filter: a superset of the hashed line numbers
	// of the LQ loads that have issued (see lineBit). A snoop whose bit is
	// clear finds no performed load on its line and skips the walk.
	lqLines   [lqFilterWords]uint64
	lineShift uint

	done bool
}

// lqFilterWords sizes the LQ snoop filter: 1024 bits.
const lqFilterWords = 16

// lineBit returns the word and mask of lineAddr's bit in the LQ snoop
// filter, hashed by line number.
func (c *Core) lineBit(lineAddr uint64) (int, uint64) {
	n := lineAddr >> c.lineShift
	return int(n>>6) & (lqFilterWords - 1), 1 << (n & 63)
}

// tickDelta records the per-cycle counter increments of the tick just
// executed. A tick that made no progress will repeat exactly these
// increments every following cycle until an event fires or a timed wake
// arrives, so the machine can bulk-apply them over a skipped range with
// SkipCycles instead of re-executing the dead ticks.
type tickDelta struct {
	gateClosed uint64 // 0/1: the retire gate was closed this cycle
	gateStall  uint64 // 0/1: a done load at the ROB head was held back this cycle
	stall      int8   // dispatch stall cause this cycle (-1 when none)
	sqSearches uint64 // SQ searches by loads re-polling a matched store's data
}

// New builds a core. The invalidation listener is registered with the
// hierarchy so that remote invalidations and local evictions snoop the LQ.
func New(id int, cfg config.Config, hier *mem.Hierarchy, st *stats.Core) *Core {
	c := &Core{
		id:    id,
		cfg:   cfg.Core,
		hier:  hier,
		bp:    predictor.NewTAGE(),
		ss:    predictor.NewStoreSet(),
		l1Lat: cfg.Mem.L1D.HitCycles,
		// Validated line sizes are powers of two.
		lineShift: uint(bits.TrailingZeros(uint(cfg.Mem.L1D.LineBytes))),
		rob:       newRing(cfg.Core.ROBEntries),
		lq:        newRing(cfg.Core.LQEntries),
		ready:     newBitset(cfg.Core.ROBEntries),
	}
	c.Reset(cfg.Model, st)
	return c
}

// Reset returns the core to the state New builds, running the machine of
// model with its counters in st, and registers it again as its hierarchy's
// client, which a hierarchy reset drops. The core keeps its id, geometry and
// hierarchy, and its storage, emptied: the predictor tables, the ROB and LQ
// rings, the ready set, the RMW list, and the arena, waiter sets and SQ
// slots that SetProgram sizes for the next program.
func (c *Core) Reset(model config.Model, st *stats.Core) {
	info, ok := model.Info()
	if !ok {
		panic(fmt.Sprintf("core: unregistered model %v", model))
	}
	*c = Core{
		id:        c.id,
		cfg:       c.cfg,
		model:     info,
		hier:      c.hier,
		st:        st,
		bp:        c.bp,
		ss:        c.ss,
		l1Lat:     c.l1Lat,
		ar:        c.ar,
		lineShift: c.lineShift,
		rob:       c.rob,
		lq:        c.lq,
		sq:        c.sq,
		rmws:      c.rmws[:0],
		ready:     c.ready,
		// waiting keeps its storage at length 0, as SetProgram resizes it.
		waiting: c.waiting[:0],

		wakeHints: true,
	}
	c.bp.Reset()
	c.ss.Reset()
	c.ar.resize(0)
	c.rob.reset()
	c.lq.reset()
	c.sq.resize(0)
	clear(c.ready)
	c.hier.SetClient(c.id, c)
}

// SetWakeHints enables or disables quiescence wake reports. With hints off a
// quiescent Tick returns sched.Never without scanning the ready set for the
// next timed-work cycle, and without sleeping, so every Tick runs the
// pipeline. Only the skip stepper reads the reports; the naive stepper
// disables them. Hints are on by default.
func (c *Core) SetWakeHints(on bool) {
	c.wakeHints = on
	c.asleep = c.asleep && on
}

// SetProgram installs the trace the core will execute and sizes the entry
// arena and the store queue for it. It must be called before the first
// Tick.
//
// Arena bound: the ROB holds at most ROBEntries live entries and the SB at
// most SQEntries retired stores no longer in the ROB. Every live slot also
// holds a distinct trace index — the ROB a contiguous run ending at
// fetchIdx, the SB stores that retired before it — so a trace shorter than
// ROBEntries+SQEntries never needs more slots than it has instructions.
//
// Store-queue bound: the queued stores, and the allocations net of
// rollbacks, are distinct trace stores, so a trace shorter than SQEntries
// neither wraps a queue of len(p) slots nor fills it while an instruction is
// left to dispatch. Each store gets the slot and sorting bit a full-size
// queue would give it.
//
// All three reuse their storage when its capacity suffices, starting as new
// ones do: every arena slot free with generation 0, so refs match a new
// core's, every waiter set empty and every SQ slot free with its sorting bit
// clear.
func (c *Core) SetProgram(p isa.Program) {
	c.prog = p
	c.fetchIdx = 0
	c.done = len(p) == 0
	n := min(c.cfg.ROBEntries+c.cfg.SQEntries, len(p))
	c.ar.resize(n)
	c.waiting = sized(c.waiting, n*len(c.ready))
	clear(c.waiting)
	c.sq.resize(min(c.cfg.SQEntries, len(p)))
}

// Done reports whether the core has retired its whole trace and drained its
// store buffer.
func (c *Core) Done() bool { return c.done }

// RegValue returns the architectural value of r (valid once Done).
func (c *Core) RegValue(r isa.Reg) uint64 { return c.regVal[r] }

// AttachTracer sets the core's observability sink (nil disables it). Call
// before the first Tick; events recorded mid-run would miss prior history.
func (c *Core) AttachTracer(t *obs.CoreTracer) { c.tr = t }

// Occupancy returns the instantaneous ROB, LQ and SQ/SB occupancies, for
// the interval-metrics sampler and for tests.
func (c *Core) Occupancy() (rob, lq, sb int) { return c.rob.len(), c.lq.len(), c.sq.count }

// obsKey encodes a store key for an event payload.
func obsKey(k key) int32 { return obs.EncodeKey(k.slot, k.sort) }

// event returns e's instruction event of the given kind at cycle: e's op,
// sequence number, trace index and address, with the encoded store key (or
// obs.KeyNone) and the payload n.
func (e *entry) event(cycle uint64, kind obs.Kind, key int32, n uint64) obs.Event {
	return obs.Event{Cycle: cycle, Kind: kind, Op: e.inst.Op, Seq: e.dynSeq,
		TraceIdx: int32(e.traceIdx), Key: key, Addr: e.inst.Addr, N: n}
}

// operandVal returns the current value of source operand n (1 or 2). A
// live producer is read in place; a stale producer has retired, and because
// retirement is in order and rename captured the *youngest* older producer,
// no other writer of the register can have retired since — the
// architectural register file holds exactly the producer's value.
func (c *Core) operandVal(e *entry, n int) uint64 {
	var prod entryRef
	var val uint64
	var reg isa.Reg
	if n == 1 {
		prod, val, reg = e.src1Prod, e.src1Val, e.inst.Src1
	} else {
		prod, val, reg = e.src2Prod, e.src2Val, e.inst.Src2
	}
	if reg == isa.RegNone {
		return 0
	}
	if prod == nilRef {
		return val
	}
	if i := prod.index(); c.ar.gens[i] == prod.gen() {
		return c.ar.ents[i].val
	}
	return c.regVal[reg]
}

// operandReady reports whether source operand n is available. A stale
// producer retired, hence completed.
func (c *Core) operandReady(e *entry, n int) bool {
	var prod entryRef
	var reg isa.Reg
	if n == 1 {
		prod, reg = e.src1Prod, e.inst.Src1
	} else {
		prod, reg = e.src2Prod, e.inst.Src2
	}
	if reg == isa.RegNone || prod == nilRef {
		return true
	}
	if i := prod.index(); c.ar.gens[i] == prod.gen() {
		return c.ar.stat[i] >= stDone
	}
	return true
}

// storeData returns the store's data value; call only when dataKnown. Once
// the store issues, the value has been latched into src1Val (see
// tryIssueStore), so post-retirement readers (the SB drain, SLF) never
// chase a recycled producer slot.
func (c *Core) storeData(e *entry) uint64 {
	if e.inst.Src1 == isa.RegNone {
		return e.inst.Imm
	}
	if p := e.src1Prod; p != nilRef {
		if i := p.index(); c.ar.gens[i] == p.gen() {
			return c.ar.ents[i].val
		}
		return c.regVal[e.inst.Src1]
	}
	return e.src1Val
}

// forwardValue extracts the load's bytes from the store's data; call only
// when contains(s, l).
func (c *Core) forwardValue(s, l *entry) uint64 {
	return forwardBytes(c.storeData(s), s.inst.Addr, l.inst.Addr, l.inst.EffSize())
}

// Tick advances the core one cycle and returns its quiescence report:
// progressed is true when any state beyond the per-cycle counter deltas
// changed, and wake is the earliest future cycle at which the core can next
// do timed work (sched.Never when it is purely event-blocked). A quiescent
// core's following ticks are exact replays until that wake cycle or an
// event, which is what lets the machine skip them with SkipCycles.
//
// With wake hints on, the core also sleeps through those replays itself:
// after a quiescent tick, each Tick before the wake cycle applies the
// recorded deltas and reports the same wake, until one of the hierarchy's
// client callbacks delivers outside state and wakes the core. A tick that
// makes no progress reads no hierarchy state, so the callbacks are the only
// way anything outside the core can change what its next tick does.
func (c *Core) Tick(now uint64) (progressed bool, wake uint64) {
	if c.done {
		return false, sched.Never
	}
	if c.asleep {
		if now < c.sleepUntil {
			c.SkipCycles(1)
			return false, c.sleepUntil
		}
		c.asleep = false
	}
	c.progressed = false
	c.delta = tickDelta{stall: -1}
	c.st.Cycles++
	if c.gate.Closed() {
		c.st.GateClosedCycles++
		c.delta.gateClosed = 1
	}
	c.retire(now)
	c.drainSB(now)
	c.issue(now)
	c.dispatch(now)
	if c.fetchIdx >= len(c.prog) && c.rob.len() == 0 && c.sq.empty() {
		c.done = true
		c.progressed = true
	}
	if c.progressed {
		return true, now + 1
	}
	if !c.wakeHints {
		return false, sched.Never
	}
	c.asleep, c.sleepUntil = true, c.wakeCycle(now)
	return false, c.sleepUntil
}

// SkipCycles bulk-applies n quiescent cycles: the per-cycle counter deltas
// recorded by the last Tick, n times. The machine calls it only after a
// fully quiescent Step and only for ranges that end before the next event
// or wake cycle, where each skipped tick is provably a replay of the last.
func (c *Core) SkipCycles(n uint64) {
	if c.done || n == 0 {
		return
	}
	c.st.Cycles += n
	c.st.GateClosedCycles += c.delta.gateClosed * n
	c.st.GateStallCycles += c.delta.gateStall * n
	if c.delta.stall >= 0 {
		c.st.StallCycles[c.delta.stall] += n
	}
	c.st.SQSearches += c.delta.sqSearches * n
}

// wakeCycle reports the earliest future cycle at which this (quiescent)
// core can make progress — or change its per-cycle counter deltas —
// without a memory-system event: the pipeline-depth window of the ROB
// head, a running execution latency, or the end of a front-end redirect
// window. Everything else the core can wait on arrives as an event. The
// locally executing entries are the stIssued members of the ready set.
func (c *Core) wakeCycle(now uint64) uint64 {
	w := uint64(sched.Never)
	if c.rob.len() > 0 {
		if i := c.rob.at(0).index(); c.ar.stat[i] == stDone && now < c.ar.minRetire[i] {
			w = c.ar.minRetire[i]
		}
	}
	for k, word := range c.ready {
		for ; word != 0; word &= word - 1 {
			i := c.rob.buf[k<<6|bits.TrailingZeros64(word)].index()
			if c.ar.stat[i] == stIssued {
				if d := c.ar.execDone[i]; d > now && d < w {
					w = d
				}
			}
		}
	}
	if c.fetchIdx < len(c.prog) && c.haltBranch == nilRef && now < c.redirectUntil && c.redirectUntil < w {
		w = c.redirectUntil
	}
	return w
}

// ---- retire -----------------------------------------------------------------

func (c *Core) retire(now uint64) {
	for n := 0; n < c.cfg.Width && c.rob.len() > 0; n++ {
		i := c.rob.at(0).index()
		e := &c.ar.ents[i]
		if c.ar.stat[i] != stDone || now < c.ar.minRetire[i] {
			return
		}
		if e.inst.Op == isa.OpFence && c.sq.anyOlderUnwritten(&c.ar, e.dynSeq) {
			return
		}
		if e.isLoad() && c.loadRetireBlocked(i, e, now) {
			return
		}
		c.doRetire(i, e, now)
	}
}

func (c *Core) doRetire(i int32, e *entry, now uint64) {
	c.progressed = true
	c.ar.stat[i] = stRetired
	c.rob.popFront()
	c.st.RetiredInsts++
	if c.tr != nil {
		c.tr.Record(e.event(now, obs.KRetire, obs.KeyNone, 0))
	}

	// A retiring store keeps its arena slot until the SB drain writes it
	// to the L1; everything else is recycled at the end of this function.
	freeSlot := !e.isStore()

	switch {
	case e.isLoad():
		if c.lq.at(0).index() != i {
			panic("core: LQ head out of sync with ROB")
		}
		c.lq.popFront()
		c.st.RetiredLoads++
		if e.slf {
			c.st.SLFLoads++
		}
		// The paper's mechanism: a retiring SLF load whose forwarding
		// store is still in the SQ/SB closes the retire gate behind
		// it (Fig. 8 step b). The presence check is the direct
		// slot+sorting-bit compare; a live forwarding store is by
		// construction not yet written to the L1.
		if c.model.Enforce == config.EnforceGate &&
			e.slf && c.sq.present(&c.ar, e.slfKey) && c.ar.live(e.slfStore) {
			gk := obs.KeyNone
			if c.model.KeyedGate {
				c.gate.CloseKeyed(e.slfKey)
				gk = obsKey(e.slfKey)
			} else {
				c.gate.CloseUnkeyed()
			}
			c.st.GateCloses++
			c.gateClosedAt = now
			if c.tr != nil {
				c.tr.Record(e.event(now, obs.KGateClose, gk, 0))
			}
		}
	case e.isStore():
		c.st.RetiredStores++
		// The store stays in its SQ/SB slot; retirement moves it
		// logically from the SQ to the SB. Its residency there — the
		// window during which it can hold the retire gate closed — is
		// measured from here to its L1 write.
		e.retiredAt = now
	case e.inst.Op == isa.OpRMW:
		c.st.RetiredLoads++
		c.st.RetiredStores++
	}

	if d := e.inst.Dst; d != isa.RegNone {
		c.regVal[d] = e.val
		if c.regProd[d].index() == i {
			c.regProd[d] = nilRef
		}
	}
	// A retiring fence's slot is recycled; younger loads holding it as
	// their barrier see a stale ref, which is exactly "fence retired".
	if freeSlot {
		c.ar.release(i)
	}
}

// ---- store buffer drain -------------------------------------------------------

// maxDrainInflight bounds the overlapping store-buffer drains (the L1 store
// commit pipeline depth).
const maxDrainInflight = 8

// drainSB issues L1 writes for retired stores at the SB head. Drains are
// pipelined — several may be in flight — but TSO's in-order memory-order
// insertion is preserved by chaining each store's completion to be no
// earlier than its predecessor's (and at most one insertion per cycle).
//
// Drains issue in queue order, a write frees only the head, and retired
// stores are never squashed, so the stores draining are exactly the oldest
// drainInflight slots: the walk starts past them.
func (c *Core) drainSB(now uint64) {
	q := &c.sq
	i := q.head + c.drainInflight
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	for n := q.count - c.drainInflight; n > 0 && c.drainInflight < maxDrainInflight; n-- {
		r := q.slots[i].ref
		if i++; i == len(q.slots) {
			i = 0
		}
		idx := r.index()
		st := &c.ar.ents[idx]
		if c.ar.stat[idx] != stRetired {
			// Retirement is in order and the queue is in program order, so
			// the retired (drainable) stores are the oldest prefix: nothing
			// younger can be drainable either.
			return
		}
		c.progressed = true
		c.drainInflight++
		if st.inst.Op != isa.OpStore {
			panic(fmt.Sprintf("core: non-store %v in SB", st.inst))
		}
		// In-order insertion, at most one store every other cycle (the
		// L1 write port is shared with fills).
		notBefore := uint64(0)
		if c.lastDrainWhen > 0 {
			notBefore = c.lastDrainWhen + 2
		}
		when := c.hier.Store(c.id, st.inst.Addr, st.inst.EffSize(), c.storeData(st), now, notBefore, uint64(r))
		c.lastDrainWhen = when
	}
}

// OnStoreWrote runs at the store's memory-order insertion cycle: the store
// leaves the SB and, if it forwarded to an SLF load that locked the retire
// gate, reopens the gate with its key (Fig. 8 step c). The arena slot is
// recycled at the end — from here on, every ref to this store (SLF loads'
// slfStore, NoSpec waitStore) reads as stale, meaning "written". Retired
// stores are never squashed, so the ref is always live here.
func (c *Core) OnStoreWrote(ref, when uint64) { c.storeWrote(entryRef(ref), when) }

func (c *Core) storeWrote(r entryRef, when uint64) {
	c.asleep = false
	i := r.index()
	e := &c.ar.ents[i]
	e.writtenL1 = true
	c.drainInflight--
	c.sq.free(r)
	if c.tr != nil {
		c.tr.Observe(hist.SBResidency, when-e.retiredAt)
		c.tr.Record(e.event(when, obs.KSBInsert, obsKey(e.sqKey), 0))
	}
	if c.gate.StoreWrote(e.sqKey) {
		c.st.GateReopens++
		if c.tr != nil {
			c.tr.Observe(hist.GateClosed, when-c.gateClosedAt)
			c.tr.Record(e.event(when, obs.KGateReopen, obsKey(e.sqKey), 0))
		}
	}
	// The keyless SLFSoS variant reopens only when the SB drains.
	if c.model.Enforce == config.EnforceGate && !c.model.KeyedGate && !c.sq.anyRetiredUnwritten(&c.ar) {
		if c.gate.SBDrained() {
			c.st.GateReopens++
			if c.tr != nil {
				c.tr.Observe(hist.GateClosed, when-c.gateClosedAt)
				c.tr.Record(e.event(when, obs.KGateReopen, obs.KeyNone, 0))
			}
		}
	}
	// Loads parked on this store as their waitStore may issue now.
	c.wake(i)
	c.ar.release(i)
}

// ---- issue / execute ----------------------------------------------------------

// issue walks the ready set oldest first: the ring positions from the ROB
// head to the end of the buffer, then the wrapped prefix. next re-reads the
// current word after every visit, so a mid-scan squash (which clears the
// flushed, younger positions) and a mid-scan wake (which sets younger
// positions) take effect exactly where a walk over the whole ROB would see
// them. When the set is empty every in-flight instruction waits on memory
// or is parked, and there is nothing to do.
func (c *Core) issue(now uint64) {
	if c.ready.empty() {
		return
	}
	budget := issueWidth
	head := c.rob.head
	for _, span := range [2][2]int{{head, len(c.rob.buf)}, {0, head}} {
		for p := c.ready.next(span[0], span[1]); p >= 0; p = c.ready.next(p+1, span[1]) {
			i := c.rob.buf[p].index()
			switch c.ar.stat[i] {
			case stIssued:
				if now >= c.ar.execDone[i] {
					c.ready.clear(p)
					c.complete(i, now)
				}
			case stDispatched:
				if budget == 0 {
					continue
				}
				e := &c.ar.ents[i]
				if c.tryIssue(i, e, now) {
					c.progressed = true
					if c.ar.stat[i] != stIssued || c.ar.inflight[i] {
						c.ready.clear(p)
					}
					budget--
					if c.tr != nil {
						c.tr.Record(e.event(now, obs.KIssue, obs.KeyNone, 0))
						if c.ar.stat[i] >= stDone {
							// Stores, fences and nops complete in place.
							c.tr.Record(e.event(now, obs.KPerform, obs.KeyNone, 0))
						}
					}
				} else {
					c.park(p, e)
				}
			}
		}
	}
}

// complete finishes a locally executing instruction (ALU, branch, or a
// forwarded load whose latency elapsed).
func (c *Core) complete(i int32, now uint64) {
	c.progressed = true
	e := &c.ar.ents[i]
	switch e.inst.Op {
	case isa.OpALU:
		e.val = c.operandVal(e, 1) + c.operandVal(e, 2) + e.inst.Imm
	case isa.OpBranch:
		if e.predWrong {
			c.st.BranchMispredicts++
			c.redirectUntil = maxU64(c.redirectUntil, now+uint64(c.cfg.BranchMispredictPenalty))
			if c.haltBranch.index() == i {
				c.haltBranch = nilRef
			}
		}
	case isa.OpLoad:
		// An SLF load's value was latched at forwarding time (the store
		// data was final then; its producer's slot may since have been
		// recycled).
	}
	c.markDone(i, e, now)
	if c.tr != nil {
		c.tr.Record(e.event(now, obs.KPerform, obs.KeyNone, e.val))
	}
}

func (c *Core) tryIssue(i int32, e *entry, now uint64) bool {
	switch e.inst.Op {
	case isa.OpALU:
		if c.operandReady(e, 1) && c.operandReady(e, 2) {
			c.ar.stat[i] = stIssued
			c.ar.execDone[i] = now + 1 + uint64(e.inst.Lat)
			return true
		}
	case isa.OpBranch:
		if c.operandReady(e, 1) {
			c.ar.stat[i] = stIssued
			c.ar.execDone[i] = now + 1
			return true
		}
	case isa.OpNop:
		c.markDone(i, e, now)
		return true
	case isa.OpFence:
		// Fences "execute" immediately; retirement enforces the drain.
		c.markDone(i, e, now)
		return true
	case isa.OpStore:
		return c.tryIssueStore(i, e, now)
	case isa.OpLoad:
		return c.tryIssueLoad(i, e, now)
	case isa.OpRMW:
		return c.tryIssueRMW(i, e, now)
	}
	return false
}

func (c *Core) tryIssueStore(i int32, e *entry, now uint64) bool {
	if !e.addrResolved && c.ar.addrKnown(e) {
		e.addrResolved = true
		c.progressed = true
		c.checkDependenceViolation(e, now)
		// Read-for-ownership prefetch: acquire M early so the SB drain
		// hits in the L1.
		c.hier.PrefetchOwner(c.id, e.inst.Addr, now)
	}
	if e.addrResolved && c.ar.dataKnown(e) {
		// Latch the data value now: the producing entry completes before
		// this point and may be recycled long before the SB drain (or an
		// SLF read) needs the value.
		if e.inst.Src1 != isa.RegNone && e.src1Prod != nilRef {
			e.src1Val = c.operandVal(e, 1)
			e.src1Prod = nilRef
		}
		c.markDone(i, e, now+1)
		return true
	}
	return false
}

// checkDependenceViolation runs when a store's address resolves: any
// younger load that already issued on overlapping bytes without forwarding
// from this store (or a younger one) is a memory-dependence misspeculation;
// it is squashed and the StoreSet predictor trained. An issued load counts
// whether it has performed or not: one still in flight to memory, or
// forwarding from a store older than this one, would otherwise return a
// value this store's write never reaches. The scan starts at the first
// younger load, found from the store's age: the store has not retired, so
// no younger load has either.
func (c *Core) checkDependenceViolation(s *entry, now uint64) {
	n := c.lq.len()
	for k := c.lq.since(s.age); k < n; k++ {
		li := c.lq.at(k).index()
		l := &c.ar.ents[li]
		if c.ar.stat[li] == stDispatched {
			continue
		}
		if !overlaps(s, l) {
			continue
		}
		if l.slf && l.slfStoreSeq > s.dynSeq {
			continue // forwarded from a younger store: shadowed
		}
		c.ss.TrainViolation(l.inst.PC, s.inst.PC)
		c.st.DepSquashes++
		c.squashFrom(li, now, false, false, obs.CauseStoreSet, s.inst.Addr)
		return
	}
}

func (c *Core) tryIssueRMW(i int32, e *entry, now uint64) bool {
	// Atomic RMW: executes at the ROB head with the SB drained, giving it
	// TSO atomic (and trivially store-atomic) semantics.
	if c.rob.len() == 0 || c.rob.at(0).index() != i || !c.ar.addrKnown(e) {
		return false
	}
	if c.sq.anyOlderUnwritten(&c.ar, e.dynSeq) {
		return false
	}
	c.ar.stat[i] = stIssued
	c.ar.inflight[i] = true
	rmw := c.ar.refOf(i)
	c.hier.RMW(c.id, e.inst.Addr, e.inst.EffSize(), e.inst.Imm, now, uint64(rmw))
	return true
}

// OnRMWDone delivers an atomic's completion: a stale ref means the RMW was
// squashed after issue and the result is dropped.
func (c *Core) OnRMWDone(ref, old, when uint64) {
	rmw := entryRef(ref)
	if !c.ar.live(rmw) {
		return
	}
	c.asleep = false
	ri := rmw.index()
	re := &c.ar.ents[ri]
	re.val = old
	c.ar.inflight[ri] = false
	c.markDone(ri, re, when)
	if c.tr != nil {
		c.tr.Record(re.event(when, obs.KPerform, obs.KeyNone, old))
	}
}

func (c *Core) tryIssueLoad(i int32, e *entry, now uint64) bool {
	if !c.ar.addrKnown(e) {
		return false
	}
	if e.fenceBarrier != nilRef && c.ar.live(e.fenceBarrier) && !c.model.PastFences {
		return false // serialize loads behind an in-flight fence
	}
	if len(c.rmws) > 0 && c.rmwBlocked(e) {
		return false
	}
	la := c.hier.LineAddr(e.inst.Addr)
	c.ar.lineAddr[i] = la
	w, b := c.lineBit(la)
	c.lqLines[w] |= b

	// Blocked on a specific store writing to the L1 (370-NoSpec blanket
	// enforcement, or a partial-overlap forwarding block)? A live ref is
	// an unwritten store; a stale one has written.
	if e.waitStore != nilRef {
		if c.ar.live(e.waitStore) {
			return false
		}
		e.waitStore = nilRef
		c.issueToMemory(i, e, now)
		return true
	}
	// Blocked on an older store's address (StoreSet dependence or
	// 370-NoSpec waiting)?
	if e.waitAddr != nilRef {
		if wi := e.waitAddr.index(); c.ar.gens[wi] == e.waitAddr.gen() && !c.ar.addrKnown(&c.ar.ents[wi]) {
			return false
		}
		e.waitAddr = nilRef
		c.progressed = true
		// fall through and re-disambiguate
	}

	c.st.SQSearches++
	c.delta.sqSearches++
	matchIdx, unknownIdx := c.sq.youngestOlderMatch(&c.ar, e)

	if c.model.Enforce == config.EnforceBlanket {
		// Blanket enforcement: wait for all older store addresses; on a
		// match, wait for that store's L1 write (IBM 370, Section II-C).
		if unknownIdx >= 0 {
			e.waitAddr = c.ar.refOf(unknownIdx)
			c.progressed = true
			return false
		}
		if matchIdx >= 0 {
			e.waitStore = c.ar.refOf(matchIdx)
			c.progressed = true
			if !e.noSpecWaited {
				e.noSpecWaited = true
				c.st.NoSpecWaits++
			}
			return false
		}
		c.issueToMemory(i, e, now)
		return true
	}

	if unknownIdx >= 0 && c.ss.PredictDependent(e.inst.PC, c.ar.ents[unknownIdx].inst.PC) {
		e.waitAddr = c.ar.refOf(unknownIdx)
		c.progressed = true
		return false
	}
	if matchIdx >= 0 {
		match := &c.ar.ents[matchIdx]
		if !contains(match, e) {
			// Partial overlap: cannot forward; wait for the store's
			// L1 write, as conventional cores do.
			e.waitStore = c.ar.refOf(matchIdx)
			c.progressed = true
			return false
		}
		if !c.ar.dataKnown(match) {
			return false // wait for the store data
		}
		// Store-to-load forwarding: the load becomes an SLF load and
		// copies the store's key (Fig. 8 step a). Under the paper's
		// insight the SLF load is NOT speculative; it is the source
		// of SA-speculation for younger loads. The forwarded value and
		// the store's dynSeq are latched here — both are final — so no
		// later reader chases the store's (recyclable) slot.
		if e.fenceBarrier != nilRef && c.ar.live(e.fenceBarrier) {
			// Forwarding past a live fence: Louvre version speculation.
			c.st.VersionSpecLoads++
		}
		e.slf = true
		e.slfStore = c.ar.refOf(matchIdx)
		e.slfStoreSeq = match.dynSeq
		e.slfKey = match.sqKey
		e.val = c.forwardValue(match, e)
		c.ar.stat[i] = stIssued
		c.ar.execDone[i] = now + uint64(c.l1Lat)
		if c.tr != nil {
			c.tr.Observe(hist.LoadSLF, c.ar.execDone[i]-now)
			c.tr.Record(e.event(now, obs.KSLFHit, obsKey(e.slfKey), 0))
		}
		return true
	}
	c.issueToMemory(i, e, now)
	return true
}

// rmwBlocked reports whether an older in-flight RMW overlapping the load's
// bytes has not yet performed. Such a load must wait: the RMW's write never
// enters the SQ, so issuing the load early would read the pre-RMW value with
// no disambiguation or squash to catch it. Completed, retired and squashed
// RMWs are dropped from the list as it is scanned, so the check costs
// nothing once they drain.
func (c *Core) rmwBlocked(e *entry) bool {
	live := c.rmws[:0]
	blocked := false
	for _, r := range c.rmws {
		ri := r.index()
		if c.ar.gens[ri] != r.gen() || c.ar.stat[ri] >= stDone {
			continue
		}
		re := &c.ar.ents[ri]
		live = append(live, r)
		if re.dynSeq < e.dynSeq && overlaps(re, e) {
			blocked = true
		}
	}
	for i := len(live); i < len(c.rmws); i++ {
		c.rmws[i] = nilRef
	}
	c.rmws = live
	return blocked
}

func (c *Core) issueToMemory(i int32, e *entry, now uint64) {
	c.ar.stat[i] = stIssued
	c.ar.inflight[i] = true
	ld := c.ar.refOf(i)
	if e.fenceBarrier != nilRef && c.ar.live(e.fenceBarrier) {
		// Only Louvre issues past a live fence; every other machine was
		// blocked at the top of tryIssueLoad.
		c.st.VersionSpecLoads++
	}
	if c.model.Invisible {
		// A load the snoop could squash, or the gate hold, before it
		// retires reads invisibly: the snoop's own tests, asked at the
		// load's LQ position.
		if k := c.lqPos(e); c.mSpeculative(k, e) || c.saSpeculative(k) {
			e.invisible = true
			c.st.InvisibleLoads++
			c.hier.LoadInvisible(c.id, e.inst.Addr, e.inst.EffSize(), now, uint64(ld))
			return
		}
	}
	c.hier.Load(c.id, e.inst.Addr, e.inst.EffSize(), now, uint64(ld))
}

// OnLoadDone delivers a load's performed value: a stale ref means the load
// was squashed after issue and the value is dropped.
func (c *Core) OnLoadDone(ref, val, when uint64) {
	ld := entryRef(ref)
	if !c.ar.live(ld) {
		return
	}
	c.asleep = false
	li := ld.index()
	le := &c.ar.ents[li]
	le.val = val
	c.ar.inflight[li] = false
	c.markDone(li, le, when)
	if c.tr != nil {
		c.tr.Record(le.event(when, obs.KPerform, obs.KeyNone, val))
	}
}

// ---- dispatch -----------------------------------------------------------------

func (c *Core) dispatch(now uint64) {
	if now < c.redirectUntil {
		return
	}
	if c.haltBranch != nilRef {
		// A mispredicted branch is in flight: the front end fetches the
		// wrong path until the branch resolves (handled in complete).
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		if c.fetchIdx >= len(c.prog) {
			return
		}
		in := c.prog[c.fetchIdx]
		if c.rob.full() {
			if n == 0 {
				c.st.StallCycles[stats.StallROB]++
				c.delta.stall = int8(stats.StallROB)
			}
			return
		}
		if in.Op == isa.OpLoad && c.lq.full() {
			if n == 0 {
				c.st.StallCycles[stats.StallLQ]++
				c.delta.stall = int8(stats.StallLQ)
			}
			return
		}
		if in.Op == isa.OpStore && c.sq.full() {
			if n == 0 {
				c.st.StallCycles[stats.StallSQ]++
				c.delta.stall = int8(stats.StallSQ)
			}
			return
		}
		c.dispatchOne(in, now)
	}
}

func (c *Core) dispatchOne(in isa.Inst, now uint64) {
	c.progressed = true
	c.dynSeq++
	i := c.ar.alloc()
	e := &c.ar.ents[i]
	e.inst = in
	e.traceIdx = c.fetchIdx
	e.dynSeq = c.dynSeq
	c.ar.minRetire[i] = now + uint64(c.cfg.PipelineDepth)
	ref := c.ar.refOf(i)
	c.fetchIdx++

	// Rename: capture producers or values for the source operands.
	if in.Src1 != isa.RegNone {
		if p := c.regProd[in.Src1]; p != nilRef {
			e.src1Prod = p
		} else {
			e.src1Val = c.regVal[in.Src1]
		}
	}
	if in.Src2 != isa.RegNone {
		if p := c.regProd[in.Src2]; p != nilRef {
			e.src2Prod = p
		} else {
			e.src2Val = c.regVal[in.Src2]
		}
	}
	if in.Dst != isa.RegNone {
		c.regProd[in.Dst] = ref
	}

	if c.tr != nil {
		c.tr.Record(e.event(now, obs.KDispatch, obs.KeyNone, 0))
	}

	c.ready.set(c.rob.push(ref))
	switch in.Op {
	case isa.OpFence:
		c.lastFence = ref
	case isa.OpLoad:
		e.fenceBarrier = c.lastFence
		e.age = int32(c.sq.allocs)
		c.lq.push(ref)
	case isa.OpRMW:
		c.rmws = append(c.rmws, ref)
	case isa.OpStore:
		e.age = int32(c.lq.pushes)
		c.sq.alloc(ref, e)
	case isa.OpBranch:
		// Train in dispatch order so the global history is coherent;
		// the penalty applies when the branch resolves.
		correct := c.bp.Update(in.PC, in.Taken)
		if !correct {
			e.predWrong = true
			c.haltBranch = ref
		}
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
