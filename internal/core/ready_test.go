package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"sesa/internal/config"
	"sesa/internal/isa"
	"sesa/internal/mem"
	"sesa/internal/noc"
	"sesa/internal/sched"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

func (s bitset) has(p int) bool { return s[p>>6]&(1<<(p&63)) != 0 }

// readyMachine is the machine sim.New builds, assembled from the same parts
// because core cannot import sim. Each cycle of run delivers the cycle's
// events one at a time and checks the receiving core after each, then ticks
// the cores the way sim.Machine.Step does and checks each after its tick.
//
// Its cores keep their wake hints on, so they sleep through quiescent ticks.
// naive is the same machine with hints off, stepped in lockstep: its cores
// run the pipeline on every tick, and each sleeping core must report the
// same progress and counters as its naive twin after every tick. A callback
// that fails to wake a core shows at the first tick its twin progresses in.
type readyMachine struct {
	t     *testing.T
	clock *sched.Clock
	hier  *mem.Hierarchy
	cores []*Core
	naive *readyMachine
	// parks holds every parking the checks observed: an entry, by core
	// and dynamic sequence number, parked on one blocker.
	parks map[parking]bool
}

// parkKind names what a parked entry waits on.
type parkKind int

const (
	parkLoadAddr  parkKind = iota // a load on its address producer
	parkLoadStore                 // a load on its waitStore
	parkALU                       // an ALU op on an operand's producer
	parkBranch                    // a branch on its source's producer
	parkStoreAddr                 // a store on its address producer
	parkStoreData                 // a store, its address resolved, on its data producer
)

// parking is one entry parked on one blocker.
type parking struct {
	kind parkKind
	core int
	seq  uint64
	on   entryRef
}

// parked returns the number of entries seen parked as kind.
func (m *readyMachine) parked(kind parkKind) int {
	entries := map[[2]uint64]bool{}
	for p := range m.parks {
		if p.kind == kind {
			entries[[2]uint64{uint64(p.core), p.seq}] = true
		}
	}
	return len(entries)
}

// maxBlockers returns the most blockers any one entry was seen parked on in
// turn.
func (m *readyMachine) maxBlockers() (most int) {
	blockers := map[[2]uint64]int{}
	for p := range m.parks {
		blockers[[2]uint64{uint64(p.core), p.seq}]++
	}
	for _, n := range blockers {
		most = max(most, n)
	}
	return most
}

func newReadyMachine(t *testing.T, cfg config.Config, progs []isa.Program) *readyMachine {
	t.Helper()
	m := buildReadyMachine(t, cfg, progs)
	m.naive = buildReadyMachine(t, cfg, progs)
	for _, c := range m.naive.cores {
		c.SetWakeHints(false)
	}
	return m
}

func buildReadyMachine(t *testing.T, cfg config.Config, progs []isa.Program) *readyMachine {
	m := &readyMachine{t: t, clock: sched.NewClock(cfg.Cores), parks: map[parking]bool{}}
	m.hier = mem.NewHierarchy(cfg.Cores, cfg.Mem, noc.New(cfg.NoC, cfg.Jitter, cfg.JitterSeed), &m.clock.EventQueue)
	st := stats.New(cfg.Model.String(), "ready", cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		c := New(i, cfg, m.hier, &st.Cores[i])
		c.SetProgram(progs[i])
		m.cores = append(m.cores, c)
	}
	return m
}

// writeImage sets an initial 8-byte value in both machines' memory.
func (m *readyMachine) writeImage(addr, val uint64) {
	m.hier.WriteImage(addr, 8, val)
	m.naive.hier.WriteImage(addr, 8, val)
}

// HandleBatch hands the hierarchy one event at a time, so a callback that
// breaks an invariant is caught at the event that broke it.
func (m *readyMachine) HandleBatch(evs []sched.Event) {
	for i := range evs {
		m.hier.HandleBatch(evs[i : i+1])
		m.check(m.cores[evs[i].Core], fmt.Sprintf("after an event of kind %d", evs[i].Kind))
	}
}

func (m *readyMachine) run(maxCycles uint64) {
	m.t.Helper()
	for !m.done() {
		now := m.clock.Now()
		if now >= maxCycles {
			m.t.Fatalf("not done after %d cycles", maxCycles)
		}
		m.clock.Deliver(m)
		m.naive.clock.Deliver(m.naive.hier)
		for i, c := range m.cores {
			progressed, wake := c.Tick(now)
			m.clock.SetWake(i, wake)
			m.check(c, "after a tick")
			n := m.naive.cores[i]
			if np, _ := n.Tick(now); np != progressed || *n.st != *c.st {
				m.t.Fatalf("core %d, cycle %d (asleep %v): tick progressed = %v with counters %+v; without wake hints, progressed = %v with counters %+v",
					i, now, c.asleep, progressed, *c.st, np, *n.st)
			}
		}
		m.clock.Tick()
		m.naive.clock.Tick()
	}
}

func (m *readyMachine) done() bool {
	for _, c := range m.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

func (m *readyMachine) check(c *Core, when string) {
	m.t.Helper()
	err := readyInvariants(c, func(kind parkKind, seq uint64, on entryRef) {
		m.parks[parking{kind, c.id, seq, on}] = true
	})
	if err == nil {
		err = snoopFilterInvariant(c)
	}
	if err != nil {
		m.t.Fatalf("core %d, cycle %d, %s: %v", c.id, m.clock.Now(), when, err)
	}
}

// snoopFilterInvariant checks that the LQ snoop filter covers every issued
// LQ load's line. The snoop acts only on performed loads, which have all
// issued, so a walk the filter skips would have found nothing.
func snoopFilterInvariant(c *Core) error {
	for k := 0; k < c.lq.len(); k++ {
		i := c.lq.at(k).index()
		if c.ar.stat[i] == stDispatched {
			continue
		}
		if w, b := c.lineBit(c.ar.lineAddr[i]); c.lqLines[w]&b == 0 {
			return fmt.Errorf("LQ load %d (%v, status %d) on line %#x is missing from the snoop filter",
				k, c.ar.ents[i].inst, c.ar.stat[i], c.ar.lineAddr[i])
		}
	}
	return nil
}

// readyInvariants checks c's ready set and waiter sets against the entries
// they describe, and reports each parked entry to parked:
//   - a position is in the ready set exactly when it holds a dispatched
//     entry that is not parked, or an entry executing locally;
//   - a parked entry is dispatched, and its blocker is live and is what the
//     entry waits for: for a load, its address producer, not yet done, or
//     its waitStore, not yet written; for an ALU op, the producer of one of
//     its operands, not yet done; for a branch, its source's producer, not
//     yet done; for a store, its address producer until the address
//     resolves and its data producer after, not yet done;
//   - the entry's position is in that blocker's waiter set and in no other.
func readyInvariants(c *Core, parked func(kind parkKind, seq uint64, on entryRef)) error {
	size := len(c.rob.buf)
	occupied := make([]bool, len(c.ready)*64)
	for k := 0; k < c.rob.len(); k++ {
		occupied[c.rob.pos(k)] = true
	}
	for p := range occupied {
		if !occupied[p] {
			if c.ready.has(p) {
				return fmt.Errorf("empty ROB position %d (of %d) is in the ready set", p, size)
			}
			continue
		}
		i := c.rob.buf[p].index()
		e := &c.ar.ents[i]
		st := c.ar.stat[i]
		member := st == stDispatched && e.parkedOn == nilRef || st == stIssued && !c.ar.inflight[i]
		if c.ready.has(p) != member {
			return fmt.Errorf("position %d (%v, status %d, inflight %v, parked on %#x): in ready set = %v",
				p, e.inst, st, c.ar.inflight[i], uint64(e.parkedOn), c.ready.has(p))
		}
		b := e.parkedOn
		if b == nilRef {
			continue
		}
		if st != stDispatched {
			return fmt.Errorf("position %d (%v, status %d) is parked", p, e.inst, st)
		}
		if !c.ar.live(b) {
			return fmt.Errorf("position %d (%v) is parked on a stale entry", p, e.inst)
		}
		kind, ok := parkedKind(c, e, b)
		if !ok {
			return fmt.Errorf("position %d (%v) is parked on an entry it does not wait for", p, e.inst)
		}
		if !c.waiters(b.index()).has(p) {
			return fmt.Errorf("position %d (%v) is missing from its blocker's waiters", p, e.inst)
		}
		parked(kind, e.dynSeq, b)
	}
	for j := range c.ar.ents {
		for w, word := range c.waiters(int32(j)) {
			for ; word != 0; word &= word - 1 {
				p := w<<6 | bits.TrailingZeros64(word)
				if !occupied[p] || c.ar.ents[c.rob.buf[p].index()].parkedOn.index() != int32(j) {
					return fmt.Errorf("arena slot %d lists position %d, which holds no entry parked on it", j, p)
				}
			}
		}
	}
	return nil
}

// parkedKind reports why the dispatched entry e is parked on the live entry
// b, and false when e does not wait for b.
func parkedKind(c *Core, e *entry, b entryRef) (parkKind, bool) {
	pending := c.ar.stat[b.index()] < stDone
	switch e.inst.Op {
	case isa.OpLoad:
		if b == e.src2Prod && pending {
			return parkLoadAddr, true
		}
		return parkLoadStore, b == e.waitStore
	case isa.OpALU:
		return parkALU, pending && (b == e.src1Prod || b == e.src2Prod)
	case isa.OpBranch:
		return parkBranch, pending && b == e.src1Prod
	case isa.OpStore:
		if e.addrResolved {
			return parkStoreData, pending && b == e.src1Prod
		}
		return parkStoreAddr, pending && b == e.src2Prod
	}
	return 0, false
}

// readyConfigs are the two core shapes the test runs: the paper's, whose
// 224-entry ROB spans four words, and the small one, whose 32-entry ROB is
// one word that wraps often.
func readyConfigs(cores int, model config.Model) []config.Config {
	return []config.Config{config.Skylake(cores, model), config.Small(cores, model)}
}

const (
	addrA = 0x1000 + 64*iota
	addrB
	addrC
	addrD
	addrE
	addrF
)

// TestReadySetWakePaths runs one small program per way an entry is parked
// and woken on every machine and both core shapes. Each program must park
// its entry and end with the expected register values.
func TestReadySetWakePaths(t *testing.T) {
	partial := isa.StoreImm(addrF, 0x11223344)
	partial.Size = 4
	lateAddr := isa.StoreImm(addrC, 9)
	lateAddr.Src2 = 30
	for _, tc := range []struct {
		name string
		mem  map[uint64]uint64
		prog isa.Program
		regs map[isa.Reg]uint64
		// parks are the parkings the program must show, on every machine
		// or only on those parkOn lists; twice asks that one entry park on
		// two blockers in turn.
		parks  []parkKind
		parkOn []config.Model
		twice  bool
	}{{
		name:  "address from a missed load",
		mem:   map[uint64]uint64{addrA: 5, addrB: 7},
		prog:  isa.Program{isa.Load(1, addrA), withDep(isa.Load(2, addrB), 1)},
		regs:  map[isa.Reg]uint64{1: 5, 2: 7},
		parks: []parkKind{parkLoadAddr},
	}, {
		name:  "address from an ALU op with latency",
		mem:   map[uint64]uint64{addrB: 7},
		prog:  isa.Program{isa.ALUImm(3, isa.RegNone, 1, 20), withDep(isa.Load(4, addrB), 3)},
		regs:  map[isa.Reg]uint64{3: 1, 4: 7},
		parks: []parkKind{parkLoadAddr},
	}, {
		name:  "address from an SLF load",
		mem:   map[uint64]uint64{addrB: 7},
		prog:  isa.Program{isa.StoreImm(addrC, 9), isa.Load(5, addrC), withDep(isa.Load(6, addrB), 5)},
		regs:  map[isa.Reg]uint64{5: 9, 6: 7},
		parks: []parkKind{parkLoadAddr},
	}, {
		name:  "address from an RMW",
		mem:   map[uint64]uint64{addrB: 7, addrD: 11},
		prog:  isa.Program{isa.RMW(7, addrD, 3), withDep(isa.Load(8, addrB), 7)},
		regs:  map[isa.Reg]uint64{7: 11, 8: 7},
		parks: []parkKind{parkLoadAddr},
	}, {
		// Program.Validate accepts a destination on any op, so a store
		// can be a load's address producer; it completes in place.
		name:  "address from a store that names a register",
		mem:   map[uint64]uint64{addrA: 5, addrB: 7},
		prog:  isa.Program{isa.Load(1, addrA), withDst(isa.StoreReg(addrC, 1), 11), withDep(isa.Load(12, addrB), 11)},
		regs:  map[isa.Reg]uint64{1: 5, 11: 0, 12: 7},
		parks: []parkKind{parkLoadAddr},
	}, {
		name:   "matching store under 370-NoSpec",
		mem:    map[uint64]uint64{addrE: 1},
		prog:   isa.Program{isa.StoreImm(addrE, 13), isa.Load(9, addrE)},
		regs:   map[isa.Reg]uint64{9: 13},
		parks:  []parkKind{parkLoadStore},
		parkOn: []config.Model{config.NoSpec370},
	}, {
		name:   "partially overlapping store under x86",
		mem:    map[uint64]uint64{addrF: 0xaaaaaaaaaaaaaaaa},
		prog:   isa.Program{partial, isa.Load(10, addrF)},
		regs:   map[isa.Reg]uint64{10: 0xaaaaaaaa11223344},
		parks:  []parkKind{parkLoadStore},
		parkOn: []config.Model{config.X86},
	}, {
		name:  "ALU operand from a load",
		mem:   map[uint64]uint64{addrA: 5},
		prog:  isa.Program{isa.Load(1, addrA), isa.ALUImm(2, 1, 3, 0)},
		regs:  map[isa.Reg]uint64{1: 5, 2: 8},
		parks: []parkKind{parkALU},
	}, {
		// The second load's address waits for the first, so the ALU op
		// wakes with its first operand ready and parks again on its
		// second.
		name:  "ALU operands from two loads",
		mem:   map[uint64]uint64{addrA: 5, addrB: 7},
		prog:  isa.Program{isa.Load(1, addrA), withDep(isa.Load(2, addrB), 1), isa.ALU(3, 1, 2)},
		regs:  map[isa.Reg]uint64{1: 5, 2: 7, 3: 12},
		parks: []parkKind{parkALU},
		twice: true,
	}, {
		name:  "branch source from a load",
		mem:   map[uint64]uint64{addrA: 5},
		prog:  isa.Program{isa.Load(1, addrA), withSrc(isa.Branch(0x40, true), 1), isa.ALUImm(2, 1, 1, 0)},
		regs:  map[isa.Reg]uint64{1: 5, 2: 6},
		parks: []parkKind{parkBranch},
	}, {
		// The WithSBPressure shape: the store's address waits for a
		// 200-cycle ALU op.
		name:  "store address from a long ALU op",
		mem:   map[uint64]uint64{addrC: 1},
		prog:  isa.Program{isa.ALUImm(30, 30, 1, 200), lateAddr, isa.Load(13, addrC)},
		regs:  map[isa.Reg]uint64{30: 1, 13: 9},
		parks: []parkKind{parkStoreAddr},
	}, {
		// The address waits 20 cycles, the data 200: the store parks on
		// its address producer, then on its data producer.
		name:  "store address, then data, from two ALU ops",
		mem:   map[uint64]uint64{addrC: 1},
		prog:  isa.Program{isa.ALUImm(29, isa.RegNone, 4, 200), isa.ALUImm(30, isa.RegNone, 0, 20), withDep(isa.StoreReg(addrC, 29), 30), isa.Load(16, addrC)},
		regs:  map[isa.Reg]uint64{29: 4, 30: 0, 16: 4},
		parks: []parkKind{parkStoreAddr, parkStoreData},
		twice: true,
	}, {
		// The data is ready long before the address: the store stays
		// parked on its address producer.
		name:  "store data, then address, from two ALU ops",
		mem:   map[uint64]uint64{addrC: 1},
		prog:  isa.Program{isa.ALUImm(29, isa.RegNone, 4, 0), isa.ALUImm(30, isa.RegNone, 0, 200), withDep(isa.StoreReg(addrC, 29), 30), isa.Load(17, addrC)},
		regs:  map[isa.Reg]uint64{29: 4, 30: 0, 17: 4},
		parks: []parkKind{parkStoreAddr},
	}, {
		// The store's first poll resolves its address and then parks it
		// on its data.
		name:  "store data from a load",
		mem:   map[uint64]uint64{addrA: 5},
		prog:  isa.Program{isa.Load(1, addrA), isa.StoreReg(addrC, 1), isa.Load(14, addrC)},
		regs:  map[isa.Reg]uint64{1: 5, 14: 5},
		parks: []parkKind{parkStoreData},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, model := range config.AllModels() {
				for _, cfg := range readyConfigs(1, model) {
					m := newReadyMachine(t, cfg, []isa.Program{tc.prog})
					for a, v := range tc.mem {
						m.writeImage(a, v)
					}
					m.run(100_000)
					for r, want := range tc.regs {
						if got := m.cores[0].RegValue(r); got != want {
							t.Errorf("%s, ROB %d: r%d = %#x, want %#x", model, cfg.Core.ROBEntries, r, got, want)
						}
					}
					if tc.parkOn != nil && !slices.Contains(tc.parkOn, model) {
						continue
					}
					for _, kind := range tc.parks {
						if m.parked(kind) == 0 {
							t.Errorf("%s, ROB %d: nothing was parked as kind %d", model, cfg.Core.ROBEntries, kind)
						}
					}
					if tc.twice && m.maxBlockers() < 2 {
						t.Errorf("%s, ROB %d: no entry parked on two blockers in turn", model, cfg.Core.ROBEntries)
					}
				}
			}
		})
	}
}

// withDep makes the load's address wait for register r.
func withDep(in isa.Inst, r isa.Reg) isa.Inst {
	in.Src2 = r
	return in
}

func withDst(in isa.Inst, r isa.Reg) isa.Inst {
	in.Dst = r
	return in
}

func withSrc(in isa.Inst, r isa.Reg) isa.Inst {
	in.Src1 = r
	return in
}

// TestReadySetTraceSlices runs short slices of 505.mcf, whose pointer
// chases park loads on missed loads, and of x264 on eight cores, whose
// contended sync line squashes, on every machine and both core shapes.
func TestReadySetTraceSlices(t *testing.T) {
	for _, tc := range []struct {
		profile string
		cores   int
		n       int
	}{{"505.mcf", 1, 2000}, {"x264", 8, 600}} {
		t.Run(tc.profile, func(t *testing.T) {
			p, ok := trace.Lookup(tc.profile)
			if !ok {
				t.Fatalf("profile %s missing", tc.profile)
			}
			w := trace.Build(p, tc.cores, tc.n, 42)
			parks, squashes := 0, uint64(0)
			for _, model := range config.AllModels() {
				for _, cfg := range readyConfigs(tc.cores, model) {
					m := newReadyMachine(t, cfg, w.Programs)
					m.run(10_000_000)
					parks += m.parked(parkLoadAddr) + m.parked(parkLoadStore)
					for _, c := range m.cores {
						squashes += c.st.Squashes + c.st.DepSquashes
					}
				}
			}
			if parks == 0 || squashes == 0 {
				t.Errorf("%d parked loads and %d squashes; the slice must exercise both", parks, squashes)
			}
		})
	}
}
