package core

import (
	"sesa/internal/config"
	"sesa/internal/obs"
)

// The machine a core runs is its registry row (config.ModelInfo), copied at
// Reset into c.model. Every decision the paper varies per machine branches
// on the row's plain fields, at the call site the decision belongs to:
//
//   - retire: loadRetireBlocked, below (Enforce, and Invisible's validation);
//   - gate close and gate key: doRetire (Enforce == EnforceGate, KeyedGate);
//   - gate reopen on SB drain: storeWrote (an unkeyed gate);
//   - blanket ordering: tryIssueLoad (Enforce == EnforceBlanket);
//   - fence bypass: tryIssueLoad (PastFences);
//   - invisible issue: issueToMemory (Invisible);
//   - the snoop's two tests: mSpeculative (PastFences) and saSpeculative
//     (Enforce).
//
// Each branch reads only core-local state, so the decision sequence is a
// pure function of (model, trace, seed).

// loadRetireBlocked applies the machine's retirement rule to the done load
// at the ROB head (arena slot i) and accounts the stall; true holds
// retirement this cycle.
func (c *Core) loadRetireBlocked(i int32, e *entry, now uint64) bool {
	switch c.model.Enforce {
	case config.EnforceSLFSpec:
		// SC-like speculation: the SLF load itself is speculative and
		// cannot retire until the store buffer empties.
		if e.slf && c.sq.anyOlderUnwritten(&c.ar, e.dynSeq) {
			c.retireStall(e, &c.st.SLFSpecRetWaits)
			return true
		}
	case config.EnforceGate:
		// The load waits while the retire gate is closed (Table IV "Gate
		// Stalls"); a load that read invisibly validates once it is open.
		if c.gate.Closed() {
			c.retireStall(e, &c.st.GateStalls)
			return true
		}
		return c.validateInvisible(i, e, now)
	}
	return false
}

// retireStall accounts one cycle of the done load e held at the ROB head:
// the first cycle of its wait also counts one episode in *episodes.
func (c *Core) retireStall(e *entry, episodes *uint64) {
	if !e.gateStalled {
		e.gateStalled = true
		*episodes++
		c.progressed = true
	}
	c.st.GateStallCycles++
	c.delta.gateStall = 1
}

// validateInvisible re-reads memory at retirement for a load that performed
// invisibly and compares against the value it consumed. A match means the
// load could legally perform now, at its memory-order point; a mismatch is
// an ordering violation the directory never saw (the invisible load was
// never a sharer), so the pipeline squashes from the load. The squash makes
// forward progress: re-issued as the oldest load with an open gate, the
// load is no longer speculative at issue and reads visibly.
func (c *Core) validateInvisible(i int32, e *entry, now uint64) bool {
	if !e.invisible {
		return false
	}
	c.st.Validations++
	if c.hier.ReadImage(e.inst.Addr, e.inst.EffSize()) == e.val {
		return false
	}
	c.st.Squashes++
	c.st.SASquashes++
	c.st.ValidationSquashes++
	c.squashFrom(i, now, true, true, obs.CauseValidation, e.inst.Addr)
	return true
}
