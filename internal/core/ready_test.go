package core

import (
	"fmt"
	"math/bits"
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
	// parks counts, over every check, the loads found parked on an
	// address producer and on a waitStore.
	addrParks, storeParks int
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
	m := &readyMachine{t: t, clock: sched.NewClock(cfg.Cores)}
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
	a, s, err := readyInvariants(c)
	if err == nil {
		err = snoopFilterInvariant(c)
	}
	if err != nil {
		m.t.Fatalf("core %d, cycle %d, %s: %v", c.id, m.clock.Now(), when, err)
	}
	m.addrParks += a
	m.storeParks += s
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
// they describe, and counts the parked loads by cause:
//   - a position is in the ready set exactly when it holds a dispatched
//     entry that is not parked, or an entry executing locally;
//   - a parked load's blocker is live and unresolved: its address producer,
//     not yet done, or its waitStore, not yet written;
//   - the load's position is in that blocker's waiter set and in no other.
func readyInvariants(c *Core) (addrParks, storeParks int, err error) {
	size := len(c.rob.buf)
	occupied := make([]bool, len(c.ready)*64)
	for k := 0; k < c.rob.len(); k++ {
		occupied[c.rob.pos(k)] = true
	}
	for p := range occupied {
		if !occupied[p] {
			if c.ready.has(p) {
				return 0, 0, fmt.Errorf("empty ROB position %d (of %d) is in the ready set", p, size)
			}
			continue
		}
		i := c.rob.buf[p].index()
		e := &c.ar.ents[i]
		st := c.ar.stat[i]
		member := st == stDispatched && e.parkedOn == nilRef || st == stIssued && !c.ar.inflight[i]
		if c.ready.has(p) != member {
			return 0, 0, fmt.Errorf("position %d (%v, status %d, inflight %v, parked on %#x): in ready set = %v",
				p, e.inst, st, c.ar.inflight[i], uint64(e.parkedOn), c.ready.has(p))
		}
		b := e.parkedOn
		if b == nilRef {
			continue
		}
		switch {
		case st != stDispatched || !e.isLoad():
			return 0, 0, fmt.Errorf("position %d (%v, status %d) is parked", p, e.inst, st)
		case !c.ar.live(b):
			return 0, 0, fmt.Errorf("load at position %d (%v) is parked on a stale entry", p, e.inst)
		case b == e.src2Prod && c.ar.stat[b.index()] < stDone:
			addrParks++
		case b == e.waitStore:
			storeParks++
		default:
			return 0, 0, fmt.Errorf("load at position %d (%v) is parked on an entry that is neither its unresolved address producer nor its waitStore", p, e.inst)
		}
		if !c.waiters(b.index()).has(p) {
			return 0, 0, fmt.Errorf("load at position %d (%v) is missing from its blocker's waiters", p, e.inst)
		}
	}
	for j := range c.ar.ents {
		for w, word := range c.waiters(int32(j)) {
			for ; word != 0; word &= word - 1 {
				p := w<<6 | bits.TrailingZeros64(word)
				if !occupied[p] || c.ar.ents[c.rob.buf[p].index()].parkedOn.index() != int32(j) {
					return 0, 0, fmt.Errorf("arena slot %d lists position %d, which holds no load parked on it", j, p)
				}
			}
		}
	}
	return addrParks, storeParks, nil
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

// TestReadySetWakePaths runs one small program per way a parked load is
// woken on every machine and both core shapes. Each program must park a
// load and end with the expected register values.
func TestReadySetWakePaths(t *testing.T) {
	partial := isa.StoreImm(addrF, 0x11223344)
	partial.Size = 4
	for _, tc := range []struct {
		name string
		mem  map[uint64]uint64
		prog isa.Program
		regs map[isa.Reg]uint64
		// storePark marks a program that must park a load on its
		// waitStore on the machine storeParkOn; the others must park a
		// load on its address producer on every machine.
		storePark   bool
		storeParkOn config.Model
	}{{
		name: "address from a missed load",
		mem:  map[uint64]uint64{addrA: 5, addrB: 7},
		prog: isa.Program{isa.Load(1, addrA), withDep(isa.Load(2, addrB), 1)},
		regs: map[isa.Reg]uint64{1: 5, 2: 7},
	}, {
		name: "address from an ALU op with latency",
		mem:  map[uint64]uint64{addrB: 7},
		prog: isa.Program{isa.ALUImm(3, isa.RegNone, 1, 20), withDep(isa.Load(4, addrB), 3)},
		regs: map[isa.Reg]uint64{3: 1, 4: 7},
	}, {
		name: "address from an SLF load",
		mem:  map[uint64]uint64{addrB: 7},
		prog: isa.Program{isa.StoreImm(addrC, 9), isa.Load(5, addrC), withDep(isa.Load(6, addrB), 5)},
		regs: map[isa.Reg]uint64{5: 9, 6: 7},
	}, {
		name: "address from an RMW",
		mem:  map[uint64]uint64{addrB: 7, addrD: 11},
		prog: isa.Program{isa.RMW(7, addrD, 3), withDep(isa.Load(8, addrB), 7)},
		regs: map[isa.Reg]uint64{7: 11, 8: 7},
	}, {
		// Program.Validate accepts a destination on any op, so a store
		// can be a load's address producer; it completes in place.
		name: "address from a store that names a register",
		mem:  map[uint64]uint64{addrA: 5, addrB: 7},
		prog: isa.Program{isa.Load(1, addrA), withDst(isa.StoreReg(addrC, 1), 11), withDep(isa.Load(12, addrB), 11)},
		regs: map[isa.Reg]uint64{1: 5, 11: 0, 12: 7},
	}, {
		name:        "matching store under 370-NoSpec",
		mem:         map[uint64]uint64{addrE: 1},
		prog:        isa.Program{isa.StoreImm(addrE, 13), isa.Load(9, addrE)},
		regs:        map[isa.Reg]uint64{9: 13},
		storePark:   true,
		storeParkOn: config.NoSpec370,
	}, {
		name:        "partially overlapping store under x86",
		mem:         map[uint64]uint64{addrF: 0xaaaaaaaaaaaaaaaa},
		prog:        isa.Program{partial, isa.Load(10, addrF)},
		regs:        map[isa.Reg]uint64{10: 0xaaaaaaaa11223344},
		storePark:   true,
		storeParkOn: config.X86,
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
					parked := m.addrParks
					if tc.storePark {
						if model != tc.storeParkOn {
							continue
						}
						parked = m.storeParks
					}
					if parked == 0 {
						t.Errorf("%s, ROB %d: no load was parked", model, cfg.Core.ROBEntries)
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
					parks += m.addrParks + m.storeParks
					for _, c := range m.cores {
						squashes += c.st.Squashes + c.st.DepSquashes
					}
				}
			}
			if parks == 0 || squashes == 0 {
				t.Errorf("%d parked-load observations and %d squashes; the slice must exercise both", parks, squashes)
			}
		})
	}
}
