package core

import (
	"math/bits"

	"sesa/internal/isa"
)

// bitset is a set of ROB ring positions, one bit per position. The issue
// stage's ready set and every entry's waiter set are bitsets.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(p int)   { s[p>>6] |= 1 << (p & 63) }
func (s bitset) clear(p int) { s[p>>6] &^= 1 << (p & 63) }

func (s bitset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the first member in [p, hi), or -1. It reads the words as it
// goes, so a walk that calls it after every visit sees members added or
// removed past the last visit.
func (s bitset) next(p, hi int) int {
	for ; p < hi; p = (p | 63) + 1 {
		if w := s[p>>6] >> (p & 63); w != 0 {
			if q := p + bits.TrailingZeros64(w); q < hi {
				return q
			}
			return -1
		}
	}
	return -1
}

// waiters returns the set of ROB positions of the entries parked on arena
// slot i.
func (c *Core) waiters(i int32) bitset {
	n := len(c.ready)
	return c.waiting[int(i)*n : int(i)*n+n]
}

// park takes the entry at ROB position p, which has just failed to issue,
// out of the ready set while one named older entry blocks it. Until that
// entry completes (or, for a load's waitStore, writes to the L1) every poll
// would fail without an observable effect (DESIGN.md §6 item 3):
//   - an ALU op waits on its first unready operand's producer, a branch on
//     its source's;
//   - a store waits on its address producer until the address resolves,
//     then on its data producer;
//   - a load waits on its address producer, or on its live waitStore.
//
// Other causes leave the entry in the set: RMWs, which wait on the ROB head
// and the SB, and loads held by a fence, an older RMW, waitAddr or a matched
// store's unknown data (each such poll counts an SQ search).
func (c *Core) park(p int, e *entry) {
	var on entryRef
	switch e.inst.Op {
	case isa.OpALU:
		on = e.src1Prod
		if c.operandReady(e, 1) {
			on = e.src2Prod
		}
	case isa.OpBranch:
		on = e.src1Prod
	case isa.OpStore:
		on = e.src1Prod
		if !e.addrResolved {
			on = e.src2Prod
		}
	case isa.OpLoad:
		on = e.waitStore
		if !c.ar.addrKnown(e) {
			on = e.src2Prod
		} else if !c.ar.live(on) {
			return
		}
	default:
		return
	}
	c.ready.clear(p)
	e.parkedOn = on
	c.waiters(on.index()).set(p)
}

// wake returns the entries parked on arena slot i to the ready set. A wake
// only lets the issue scan poll the entry again, so waking one whose
// blocker has not resolved costs one failed poll; a missed wake would leave
// the entry parked for good.
func (c *Core) wake(i int32) {
	ws := c.waiters(i)
	for w, word := range ws {
		if word == 0 {
			continue
		}
		ws[w] = 0
		c.ready[w] |= word
		for ; word != 0; word &= word - 1 {
			c.ar.ents[c.rob.buf[w<<6|bits.TrailingZeros64(word)].index()].parkedOn = nilRef
		}
	}
}

// markDone records that entry i's result is available at cycle when. An
// entry that writes a register may be the producer a parked entry waits on,
// so its waiters wake.
func (c *Core) markDone(i int32, e *entry, when uint64) {
	c.ar.stat[i] = stDone
	c.ar.execDone[i] = when
	if e.inst.Dst != isa.RegNone {
		c.wake(i)
	}
}
