package trace

import (
	"fmt"

	"sesa/internal/isa"
)

// Memory-layout bases. Per-core regions are spaced so cores never share
// private lines; the shared and sync regions are common to all cores.
const (
	stackBase  = uint64(0x1_0000_0000)
	wsBase     = uint64(0x2_0000_0000)
	streamBase = uint64(0x3_0000_0000)
	sharedBase = uint64(0x4_0000_0000)
	syncBase   = uint64(0x5_0000_0000)
	coreStride = uint64(0x1000_0000)
	lineBytes  = 64

	// codeFootprint is the number of distinct static PCs: instruction
	// PCs repeat modulo this, letting the branch and memory-dependence
	// predictors train as they would on looping code.
	codeFootprint = 2048
)

// rng is a splitmix64 stream.
type rng uint64

func (s *rng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *rng) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *rng) intn(n int) int { return int(s.next() % uint64(n)) }

// Register allocation for generated code.
const (
	regALU0  = isa.Reg(0)  // r0..r5: ALU rotation
	regChase = isa.Reg(8)  // pointer-chase register
	regLoad0 = isa.Reg(10) // r10..r15: load destinations
)

// gen carries the generator state for one core's stream.
type gen struct {
	p    Profile
	core int
	r    rng
	prog isa.Program

	fwdQ        []pendingFwd
	nFwd        int
	nLoad       int
	nStore      int
	nBranch     int
	nSyncEp     int
	streamPtr   uint64
	wsPtr       uint64
	conflictIdx int
	stackSlot   int
	loadReg     int
	aluReg      int
	branchIdx   int
}

func (g *gen) pc() uint64 {
	return 0x40_0000 + uint64(len(g.prog)%codeFootprint)*4
}

func (g *gen) emit(in isa.Inst) {
	in.PC = g.pc()
	g.prog = append(g.prog, in)
}

// stackAddr returns one of a small ring of per-core stack slots — the
// write-then-read locations (call frames, spilled registers) that produce
// store-to-load forwarding.
func (g *gen) stackAddr() uint64 {
	g.stackSlot = (g.stackSlot + 1) % 16
	return stackBase + uint64(g.core)*coreStride + uint64(g.stackSlot)*8
}

// wsAddr walks the core's private working set mostly sequentially with
// occasional random jumps, the locality real code has: recently loaded
// lines keep getting touched, so the LRU protects them while their loads
// are still in the instruction window.
func (g *gen) wsAddr() uint64 {
	if g.r.float() < 0.05 {
		g.wsPtr = uint64(g.r.intn(g.p.WorkingSetBytes/8)) * 8
	} else {
		g.wsPtr = (g.wsPtr + 8) % uint64(g.p.WorkingSetBytes)
	}
	return wsBase + uint64(g.core)*coreStride + g.wsPtr
}

// streamAddr advances the streaming pointer one line through the large
// region, wrapping at StreamBytes.
func (g *gen) streamAddr() uint64 {
	g.streamPtr = (g.streamPtr + lineBytes) % uint64(g.p.StreamBytes)
	return streamBase + uint64(g.core)*coreStride + g.streamPtr
}

// conflictAddr walks a page-strided ring: 64 lines spaced 4 KiB apart, all
// mapping to few L1 sets, so fills evict each other while their loads are
// still in flight.
func (g *gen) conflictAddr() uint64 {
	g.conflictIdx = (g.conflictIdx + 1) % 64
	return streamBase + uint64(g.core)*coreStride + 0x80_0000 + uint64(g.conflictIdx)*4096
}

// sharedAddr returns a random line shared by all cores.
func (g *gen) sharedAddr() uint64 {
	return sharedBase + uint64(g.r.intn(g.p.SharedLines))*lineBytes
}

// syncAddr returns one of the contended synchronization lines.
func (g *gen) syncAddr() uint64 {
	return syncBase + uint64(g.r.intn(g.p.SyncVars))*lineBytes
}

// dataAddr picks a plain-access address according to the stream/shared
// knobs.
func (g *gen) dataAddr() uint64 {
	f := g.r.float()
	switch {
	case f < g.p.SharedPct:
		return g.sharedAddr()
	case f < g.p.SharedPct+g.p.ConflictPct:
		return g.conflictAddr()
	case f < g.p.SharedPct+g.p.ConflictPct+g.p.StreamPct:
		return g.streamAddr()
	default:
		return g.wsAddr()
	}
}

func (g *gen) nextLoadReg() isa.Reg {
	g.loadReg = (g.loadReg + 1) % 6
	return regLoad0 + isa.Reg(g.loadReg)
}

func (g *gen) nextALUReg() isa.Reg {
	g.aluReg = (g.aluReg + 1) % 6
	return regALU0 + isa.Reg(g.aluReg)
}

// pendingFwd is a queued forwarded load: the store was emitted at emitIdx
// dueAt-gap; the load goes out when the stream reaches dueAt.
type pendingFwd struct {
	addr  uint64
	dueAt int
}

// emitFwdStore emits the store half of a forwarding pair and queues its
// load a few instructions ahead — the write-then-read distance of argument
// passing and register spills. The instructions in between come from the
// normal mix, so the pair costs exactly two slots of the budget. The
// distance determines the retirement gap between store and load, and with
// it whether the forwarding store has already written to the L1 when the
// SLF load retires — i.e. whether the retire gate closes (Section VI-A:
// "in most of these cases ... the retire gate is never closed").
func (g *gen) emitFwdStore() {
	addr := g.stackAddr()
	if g.r.float() < g.p.FwdSlowPct {
		addr = g.streamAddr()
	}
	g.emit(isa.StoreImm(addr, g.r.next()))
	g.nStore++
	// Bimodal distance: most forwarding idioms are short (spill/reload,
	// immediately-read call arguments), a minority long (arguments read
	// deep in the callee). Short pairs are the ones blanket 370
	// enforcement stalls on; long pairs are the ones whose store has
	// usually written by SLF-load retirement.
	gap := 2 + g.r.intn(8)
	if g.r.float() < 0.4 {
		gap = 16 + g.r.intn(40)
	}
	g.fwdQ = append(g.fwdQ, pendingFwd{addr: addr, dueAt: len(g.prog) + gap})
}

// emitFwdLoad emits the load half of the oldest queued forwarding pair.
func (g *gen) emitFwdLoad() {
	pf := g.fwdQ[0]
	g.fwdQ = g.fwdQ[1:]
	g.emit(isa.Load(g.nextLoadReg(), pf.addr))
	g.nFwd++
	g.nLoad++
}

// emitLoad emits a plain load; with probability ChasePct it is a pointer
// chase whose address depends on the previous chase load.
func (g *gen) emitLoad() {
	if g.r.float() < g.p.ChasePct {
		// Pointer chase: each link's address depends on the previous
		// load's value; the region size decides how deep in the
		// hierarchy the chain runs.
		off := uint64(g.r.intn(g.p.ChaseBytes/64)) * 64
		in := isa.Load(regChase, streamBase+uint64(g.core)*coreStride+0x100_0000+off)
		in.Src2 = regChase // address depends on the previous link
		g.emit(in)
	} else {
		g.emit(isa.Load(g.nextLoadReg(), g.dataAddr()))
	}
	g.nLoad++
}

func (g *gen) emitStore() {
	g.emit(isa.StoreImm(g.dataAddr(), g.r.next()))
	g.nStore++
}

// emitBranch emits a branch with a mostly regular pattern plus a
// data-dependent noisy fraction.
func (g *gen) emitBranch() {
	g.branchIdx++
	taken := g.branchIdx%8 != 0
	if g.r.float() < g.p.BranchNoise {
		taken = g.r.next()&1 == 0
	}
	g.emit(isa.Branch(0, taken)) // PC is assigned by emit
	g.nBranch++
}

// emitSyncEpisode emits a contended synchronization episode: an atomic RMW
// on a sync line followed by a store and a forwarded load of the same line —
// the pthread_cond_wait pattern whose forwarding on a highly contended
// variable causes x264's store-atomicity misspeculations (Section VI-A).
func (g *gen) emitSyncEpisode() {
	sv := g.syncAddr()
	g.emit(isa.RMW(g.nextLoadReg(), sv, 1))
	g.emit(isa.StoreImm(sv+8, g.r.next()))
	g.emit(isa.Load(g.nextLoadReg(), sv+8))
	g.emit(isa.Load(g.nextLoadReg(), sv+16))
	g.nSyncEp++
	g.nFwd++
	g.nLoad += 3
	g.nStore++
}

func (g *gen) emitALU() {
	r := g.nextALUReg()
	g.emit(isa.ALUImm(r, r, 1, g.p.ALULat))
}

// MaxInstPerCore bounds a generated trace's instructions per core: five
// times the largest scale the documentation runs (200,000). An 8-core trace
// at the bound holds 256 MiB of instructions (32 bytes each).
const MaxInstPerCore = 1 << 20

// CheckInstPerCore rejects a per-core instruction count that Generate
// cannot serve: zero or fewer instructions, or more than MaxInstPerCore.
// Every path that takes the count from a user (the sweep service, the
// CLIs' -n, a runner job) checks it before building a trace.
func CheckInstPerCore(n int) error {
	if n <= 0 || n > MaxInstPerCore {
		return fmt.Errorf("trace: instructions per core must be in 1..%d, got %d", MaxInstPerCore, n)
	}
	return nil
}

// Generate produces a deterministic n-instruction stream for one core.
func Generate(p Profile, core, n int, seed uint64) isa.Program {
	p = p.defaults()
	g := &gen{
		p:    p,
		core: core,
		r:    rng(seed*0x9E3779B9 + uint64(core)*0x85EBCA6B + 1),
		prog: make(isa.Program, 0, n+8),
	}

	// Target counts. Forwarding pairs and sync episodes contribute to the
	// load/store budgets, so plain loads/stores cover the remainder.
	targetFwd := float64(n) * p.ForwardPct / 100
	targetSync := float64(n) * p.SyncPct / 100 / 5 // ~5 instructions each
	targetLoad := float64(n)*p.LoadPct/100 - targetFwd - 2*targetSync
	targetStore := float64(n) * p.StorePct / 100
	targetBranch := float64(n) * p.BranchPct / 100
	if targetLoad < 0 {
		targetLoad = 0
	}

	for len(g.prog) < n {
		if len(g.fwdQ) > 0 && len(g.prog) >= g.fwdQ[0].dueAt {
			g.emitFwdLoad()
			continue
		}
		pos := float64(len(g.prog)) / float64(n)
		switch {
		case float64(g.nSyncEp) < targetSync*pos:
			g.emitSyncEpisode()
		case float64(g.nFwd+len(g.fwdQ)-g.nSyncEp) < targetFwd*pos:
			g.emitFwdStore()
		case float64(g.nLoad-g.nFwd-2*g.nSyncEp) < targetLoad*pos:
			g.emitLoad()
		case float64(g.nStore-g.nFwd-len(g.fwdQ)) < targetStore*pos:
			g.emitStore()
		case float64(g.nBranch) < targetBranch*pos:
			g.emitBranch()
		default:
			g.emitALU()
		}
	}
	return g.prog[:n]
}

// Workload is a set of per-core programs ready to run on a machine.
type Workload struct {
	Name     string
	Suite    Suite
	Programs []isa.Program
}

// Build generates the workload for a profile: all cores run the stream
// (with per-core seeds) for parallel suites; sequential suites use core 0
// only.
func Build(p Profile, cores, instPerCore int, seed uint64) Workload {
	w := Workload{Name: p.Name, Suite: p.Suite}
	n := cores
	if p.Suite == Sequential {
		n = 1
	}
	for c := 0; c < n; c++ {
		w.Programs = append(w.Programs, Generate(p, c, instPerCore, seed))
	}
	return w
}
