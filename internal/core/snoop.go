package core

import (
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
		mspec, sa := c.loadSpeculative(k, e)
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

// loadSpeculative decides whether the performed load at LQ position k may
// still be squashed, under the core's consistency policy.
//
// All machines use in-window load-load speculation: a load that performed
// while an older load is unperformed is M-speculative. The chain through
// older performed-but-speculative loads is implied: if the oldest
// unperformed load L0 precedes them both, every younger performed load sees
// L0 as an older unperformed load.
//
// Beyond that baseline the policy decides: Policy.VersionSpeculative adds
// machine-specific M-speculation sources (Louvre holds loads squashable
// while their fence barrier is in flight), and Policy.SASpeculative is the
// machine's store-atomicity speculation state — the SoS family keys it on
// the retire gate and older SLF loads with unwritten forwarding stores
// (Section IV-A), SLFSpec on the SLF load itself until the SB drains.
func (c *Core) loadSpeculative(k int, e *entry) (mspec, sa bool) {
	// M-speculative: any older unperformed load. This is the baseline
	// load-load in-window speculation every model (including x86) uses.
	for j := 0; j < k; j++ {
		if c.ar.stat[c.lq.at(j).index()] < stDone {
			mspec = true
			break
		}
	}
	if !mspec {
		// An in-flight atomic RMW is an older unperformed read too; it
		// occupies no LQ slot, but a load that performed past it is just
		// as speculative. A stale ref is a retired or squashed RMW.
		for _, r := range c.rmws {
			ri := r.index()
			if c.ar.gens[ri] != r.gen() || c.ar.stat[ri] >= stDone {
				continue
			}
			if c.ar.ents[ri].dynSeq < e.dynSeq {
				mspec = true
				break
			}
		}
	}
	if !mspec && c.policy.VersionSpeculative(c, e) {
		mspec = true
	}
	sa = c.policy.SASpeculative(c, k, e)
	return
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
		c.tr.Record(obs.Event{Cycle: now, Kind: obs.KSquash, Cause: cause, Op: from.inst.Op,
			Seq: from.dynSeq, TraceIdx: int32(from.traceIdx), Key: obs.KeyNone, Addr: addr,
			N: uint64(flushed)})
	}
	for k := n - 1; k >= pos; k-- {
		p := c.rob.pos(k)
		r := c.rob.buf[p]
		i := r.index()
		e := &c.ar.ents[i]
		if c.tr != nil {
			c.tr.Record(obs.Event{Cycle: now, Kind: obs.KFlush, Cause: cause, Op: e.inst.Op,
				Seq: e.dynSeq, TraceIdx: int32(e.traceIdx), Key: obs.KeyNone, Addr: e.inst.Addr})
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
