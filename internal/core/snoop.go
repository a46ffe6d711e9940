package core

import (
	"sort"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/isa"
	"sesa/internal/obs"
)

// OnLineRemoved is the hierarchy's invalidation/eviction notification: it
// snoops the load queue. A performed, non-retired load on the removed line
// is squashed if it is speculative under the core's model — the mechanism
// that dynamically enforces store atomicity exactly when a violation would
// otherwise become observable (Sections III and IV).
//
// The walk runs only when the line's bit is set in the snoop filter: every
// performed LQ load was issued, and issuing set its line's bit, so a clear
// bit means the walk would find nothing. A walk that squashes nothing has
// seen every LQ load and rebuilds the filter from the issued ones, which
// drops the bits of loads that have since retired or been squashed.
func (c *Core) OnLineRemoved(lineAddr uint64, when uint64, eviction bool) {
	if c.done {
		return
	}
	c.st.LQSnoops++
	if w, b := c.lineBit(lineAddr); c.lqLines[w]&b == 0 {
		return
	}
	var lines [lqFilterWords]uint64
	n := c.lq.len()
	for k := 0; k < n; k++ {
		i := c.lq.at(k).index()
		if c.ar.stat[i] == stDispatched {
			continue
		}
		w, b := c.lineBit(c.ar.lineAddr[i])
		lines[w] |= b
		if c.ar.stat[i] != stDone || c.ar.lineAddr[i] != lineAddr {
			continue
		}
		e := &c.ar.ents[i]
		mspec, sa := c.mSpeculative(k, e), c.saSpeculative(k)
		if !mspec && !sa {
			continue
		}
		c.st.LQSnoopHits++
		c.st.Squashes++
		if sa {
			// The load was SA-speculative when caught: a
			// store-atomicity misspeculation (Table IV counts
			// re-execution "from the speculative load that is
			// caught by an invalidation or replacement").
			c.st.SASquashes++
		}
		if eviction {
			c.st.EvictionSquashes++
		}
		cause := obs.CauseMSpec
		if sa {
			cause = obs.CauseSA
		}
		c.asleep = false
		c.squashFrom(i, when, true, sa, cause, lineAddr)
		return
	}
	c.lqLines = lines
}

// mSpeculative and saSpeculative are the snoop's two tests: whether the
// performed load at LQ position k may still be squashed, under the machine
// the core runs, and whether that would be a store-atomicity squash.
//
// mSpeculative is in-window load-load speculation, which every machine
// (x86 included) uses: a load that performed while an older load is
// unperformed. The chain through older performed-but-speculative loads is
// implied: if the oldest unperformed load L0 precedes them both, every
// younger performed load sees L0 as an older unperformed load. Louvre
// (PastFences) adds one source: a load that issued past a fence still in
// flight.
func (c *Core) mSpeculative(k int, e *entry) bool {
	for j := 0; j < k; j++ {
		if c.ar.stat[c.lq.at(j).index()] < stDone {
			return true
		}
	}
	// An in-flight atomic RMW is an older unperformed read too; it occupies
	// no LQ slot, but a load that performed past it is just as speculative.
	// A stale ref is a retired or squashed RMW.
	for _, r := range c.rmws {
		ri := r.index()
		if c.ar.gens[ri] != r.gen() || c.ar.stat[ri] >= stDone {
			continue
		}
		if c.ar.ents[ri].dynSeq < e.dynSeq {
			return true
		}
	}
	// A live barrier ref is an in-flight fence: the load's version is still
	// unvalidated.
	return c.model.PastFences && e.fenceBarrier != nilRef && c.ar.live(e.fenceBarrier)
}

// saSpeculative reports whether the load at LQ position k is SA-speculative
// under the machine's enforcement: the SoS family keys it on the retire gate
// and older SLF loads with unwritten forwarding stores (Section IV-A),
// SLFSpec on the SLF load itself until the SB drains; x86 and 370-NoSpec
// have none.
func (c *Core) saSpeculative(k int) bool {
	switch c.model.Enforce {
	case config.EnforceSLFSpec:
		// An SLF load stays speculative, and so does every younger load,
		// until every store older than it has written.
		for j := 0; j <= k; j++ {
			li := c.lq.at(j).index()
			l := &c.ar.ents[li]
			if l.slf && c.ar.stat[li] >= stDone && c.sq.anyOlderUnwritten(&c.ar, l.dynSeq) {
				return true
			}
		}
	case config.EnforceGate:
		// The gate is closed, or an older SLF load's forwarding store has
		// not written (a live ref is by construction an unwritten store).
		// The SLF load itself is not speculative.
		if c.gate.Closed() {
			return true
		}
		for j := 0; j < k; j++ {
			if l := &c.ar.ents[c.lq.at(j).index()]; l.slf && c.ar.live(l.slfStore) {
				return true
			}
		}
	}
	return false
}

// lqPos returns the LQ position of the load e. The LQ is in program order,
// so its loads' dynSeqs ascend.
func (c *Core) lqPos(e *entry) int {
	return sort.Search(c.lq.len(), func(k int) bool {
		return c.ar.ents[c.lq.at(k).index()].dynSeq >= e.dynSeq
	})
}

// squashFrom flushes the pipeline from the entry in arena slot fromIdx
// (inclusive) to the ROB tail and restarts fetch at its trace index.
// countReexec attributes the flushed instructions to the Table IV
// "re-executed" metric (store-atomicity or load-load misspeculation);
// memory-dependence squashes are counted separately. Every flushed entry's
// arena slot is recycled here — outstanding refs (memory callbacks in
// flight, producer links) turn stale, which their holders read as
// "squashed; ignore".
func (c *Core) squashFrom(fromIdx int32, now uint64, countReexec, saOnly bool, cause obs.Cause, addr uint64) {
	c.progressed = true
	fromRef := c.ar.refOf(fromIdx)
	from := &c.ar.ents[fromIdx]
	fromTraceIdx := from.traceIdx
	pos := -1
	n := c.rob.len()
	for k := 0; k < n; k++ {
		if c.rob.at(k) == fromRef {
			pos = k
			break
		}
	}
	if pos < 0 {
		panic("core: squash target not in ROB")
	}
	flushed := n - pos
	if c.tr != nil {
		ev := from.event(now, obs.KSquash, obs.KeyNone, uint64(flushed))
		ev.Cause, ev.Addr = cause, addr
		c.tr.Record(ev)
	}
	for k := n - 1; k >= pos; k-- {
		p := c.rob.pos(k)
		r := c.rob.buf[p]
		i := r.index()
		e := &c.ar.ents[i]
		if c.tr != nil {
			ev := e.event(now, obs.KFlush, obs.KeyNone, 0)
			ev.Cause = cause
			c.tr.Record(ev)
		}
		// Take the position out of the ready set and, for a parked load,
		// out of its blocker's waiters. The blocker is older, so it is
		// still live here even when this squash flushes it too.
		c.ready.clear(p)
		if e.parkedOn != nilRef {
			c.waiters(e.parkedOn.index()).clear(p)
		}
		if e.isStore() {
			if c.ar.stat[i] == stRetired {
				panic("core: squashing a retired store")
			}
			c.sq.rollback(r)
		}
		if c.haltBranch == r {
			c.haltBranch = nilRef
		}
		c.ar.release(i)
	}
	if countReexec {
		c.st.ReexecInsts += uint64(flushed)
		if saOnly {
			c.st.SAReexecInsts += uint64(flushed)
		}
	}
	c.rob.truncate(pos)

	// Rebuild the LQ (a suffix was flushed) and the rename map. Flushed
	// loads are the now-stale refs at the LQ tail.
	for c.lq.len() > 0 && !c.ar.live(c.lq.at(c.lq.len()-1)) {
		c.lq.truncate(c.lq.len() - 1)
	}
	for r := range c.regProd {
		c.regProd[r] = nilRef
	}
	c.lastFence = nilRef
	for k := 0; k < c.rob.len(); k++ {
		ref := c.rob.at(k)
		e := &c.ar.ents[ref.index()]
		if e.inst.Dst != isa.RegNone {
			c.regProd[e.inst.Dst] = ref
		}
		if e.inst.Op == isa.OpFence {
			c.lastFence = ref
		}
	}

	c.fetchIdx = fromTraceIdx
	c.redirectUntil = maxU64(c.redirectUntil, now+uint64(c.cfg.SquashRefillPenalty))
	if c.tr != nil {
		// The squash-to-refill cost: cycles dispatch stays blocked from
		// this squash until its refill window ends (overlapping windows
		// extend it past the fixed penalty).
		c.tr.Observe(hist.SquashRefill, c.redirectUntil-now)
	}
}
