// Package fuzz is the repository's standing correctness harness: a seeded,
// deterministic random litmus generator plus a three-way cross-validation
// driver that checks every generated program against the timing simulator
// (witness search across seeds and configurations), the exhaustive
// operational checker and the axiomatic candidate-execution enumerator.
//
// The three engines share nothing but the micro-ISA: the simulator is a
// cycle-accurate microarchitecture, the checker a state-space search over an
// abstract machine, and the axiomatic enumerator a filter over rf/ws
// assignments. An outcome the simulator witnesses that the corresponding
// model forbids — or any checker/axiomatic disagreement — is a bug in one of
// them, and the seed plus the ConsistencyChecker-style text of the program
// make the failure a one-line reproduction.
package fuzz

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/isa"
)

// Budget bounds the shape of generated programs. All limits are inclusive
// maxima; the generator draws the actual shape pseudo-randomly per seed.
type Budget struct {
	// Threads is the maximum thread count (at least 2).
	Threads int
	// Ops is the maximum number of operations per thread (at least 2).
	Ops int
	// Addrs is the number of distinct shared locations (1..6: x, y, z, w,
	// u, v — each on its own cache line).
	Addrs int
	// Fences is the maximum number of fences per thread.
	Fences int
	// RMWs is the maximum number of atomic read-modify-writes per thread.
	RMWs int
}

// DefaultBudget is the CI fuzz budget: 2-3 threads of up to 4 operations
// over two locations, small enough that exhaustive enumeration of every
// generated program is instantaneous.
func DefaultBudget() Budget {
	return Budget{Threads: 3, Ops: 4, Addrs: 2, Fences: 1, RMWs: 1}
}

// String renders the budget in the -budget flag syntax.
func (b Budget) String() string {
	return fmt.Sprintf("threads=%d,ops=%d,addrs=%d,fences=%d,rmws=%d",
		b.Threads, b.Ops, b.Addrs, b.Fences, b.RMWs)
}

// Validate checks the budget against the generator's hard limits.
func (b Budget) Validate() error {
	switch {
	case b.Threads < 2 || b.Threads > 6:
		return fmt.Errorf("fuzz: budget threads=%d out of range [2,6]", b.Threads)
	case b.Ops < 2 || b.Ops > 12:
		return fmt.Errorf("fuzz: budget ops=%d out of range [2,12]", b.Ops)
	case b.Addrs < 1 || b.Addrs > len(varNames):
		return fmt.Errorf("fuzz: budget addrs=%d out of range [1,%d]", b.Addrs, len(varNames))
	case b.Fences < 0 || b.RMWs < 0:
		return fmt.Errorf("fuzz: budget fences/rmws must be non-negative")
	case b.maxEvents() > axiomatic.MaxEvents:
		return fmt.Errorf("fuzz: budget threads=%d,ops=%d,rmws=%d can generate %d memory events, more than the axiomatic enumerator's %d",
			b.Threads, b.Ops, b.RMWs, b.maxEvents(), axiomatic.MaxEvents)
	}
	return nil
}

// maxEvents bounds the memory events of a generated program: every op is at
// most one event, and each RMW is two.
func (b Budget) maxEvents() int { return b.Threads * (b.Ops + min(b.RMWs, b.Ops)) }

// ParseBudget parses the -budget flag syntax, e.g.
// "threads=2,ops=4,addrs=2,fences=1,rmws=1". Omitted keys keep their
// DefaultBudget value; unknown keys are rejected.
func ParseBudget(s string) (Budget, error) {
	b := DefaultBudget()
	if strings.TrimSpace(s) == "" {
		return b, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, valStr, ok := strings.Cut(kv, "=")
		if !ok {
			return b, fmt.Errorf("fuzz: budget term %q is not key=value", kv)
		}
		val, err := strconv.Atoi(valStr)
		if err != nil {
			return b, fmt.Errorf("fuzz: budget term %q: %v", kv, err)
		}
		switch key {
		case "threads":
			b.Threads = val
		case "ops":
			b.Ops = val
		case "addrs":
			b.Addrs = val
		case "fences":
			b.Fences = val
		case "rmws":
			b.RMWs = val
		default:
			return b, fmt.Errorf("fuzz: unknown budget key %q (want threads, ops, addrs, fences, rmws)", key)
		}
	}
	return b, b.Validate()
}

// rng is a splitmix64 stream: every draw is a pure function of the seed and
// the draw count, so a program is fully determined by (seed, budget).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	// Pre-mix so that adjacent seeds (the driver hands out seed, seed+1,
	// ...) produce uncorrelated streams.
	r := &rng{state: seed + 0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// opKind is the generator's pre-lowering operation alphabet.
type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opStoreReg
	opFence
	opRMW
)

// opSpec is one drawn operation before lowering to the micro-ISA.
type opSpec struct {
	kind opKind
	addr int    // variable index for memory ops
	val  uint64 // store value / RMW addend
	src  int    // opStoreReg: per-thread load index whose register is stored
}

// maxStoresPerAddr bounds the write serializations the axiomatic enumerator
// must permute (k! per location).
const maxStoresPerAddr = 4

// complexityCap bounds the candidate-execution count of a generated program
// (product of per-read rf choices and per-location ws permutations); programs
// over the cap are deterministically trimmed from the back.
const complexityCap = 500_000

// Generate builds the seeded random litmus program for (seed, budget). The
// same pair always yields the identical program; adjacent seeds yield
// unrelated programs. Every load (and RMW) becomes a named register
// observable and every referenced location a memory observable, so outcome
// strings discriminate executions as finely as the ISA allows.
func Generate(seed uint64, b Budget) checker.Program {
	r := newRNG(seed)

	nThreads := 2
	if b.Threads > 2 {
		nThreads += r.intn(b.Threads - 1)
	}

	// Distinct store values per location discriminate writers in outcomes.
	nextVal := make([]uint64, b.Addrs)
	storesAt := make([]int, b.Addrs)

	ops := make([][]opSpec, nThreads)
	for ti := 0; ti < nThreads; ti++ {
		n := 2
		if b.Ops > 2 {
			n += r.intn(b.Ops - 1)
		}
		fencesLeft, rmwsLeft := b.Fences, b.RMWs
		loads := 0
		for i := 0; i < n; i++ {
			addr := r.intn(b.Addrs)
			roll := r.intn(10)
			var op opSpec
			switch {
			case roll < 4: // load
				op = opSpec{kind: opLoad, addr: addr}
			case roll < 7: // store of a fresh immediate
				op = opSpec{kind: opStore, addr: addr}
			case roll < 8 && fencesLeft > 0:
				op = opSpec{kind: opFence}
				fencesLeft--
			case roll < 9 && rmwsLeft > 0:
				op = opSpec{kind: opRMW, addr: addr, val: uint64(1 + r.intn(2))}
				rmwsLeft--
			case loads > 0: // store a previously loaded register
				op = opSpec{kind: opStoreReg, addr: addr, src: r.intn(loads)}
			default:
				op = opSpec{kind: opStore, addr: addr}
			}
			// Keep write serializations enumerable: excess stores degrade
			// to loads.
			if (op.kind == opStore || op.kind == opStoreReg || op.kind == opRMW) &&
				storesAt[op.addr] >= maxStoresPerAddr {
				op = opSpec{kind: opLoad, addr: addr}
			}
			switch op.kind {
			case opLoad:
				loads++
			case opStore:
				nextVal[op.addr]++
				op.val = nextVal[op.addr]
				storesAt[op.addr]++
			case opStoreReg, opRMW:
				storesAt[op.addr]++
			}
			ops[ti] = append(ops[ti], op)
		}
	}

	trimToComplexityCap(ops, b)
	return lower(seed, ops, b)
}

// trimToComplexityCap removes memory operations from the back of the program
// until the candidate-execution estimate fits the cap. Deterministic: it
// scans threads last-to-first.
func trimToComplexityCap(ops [][]opSpec, b Budget) {
	for estimate(ops, b) > complexityCap {
		trimmed := false
		for ti := len(ops) - 1; ti >= 0 && !trimmed; ti-- {
			th := ops[ti]
			for i := len(th) - 1; i >= 0; i-- {
				if th[i].kind == opFence {
					continue
				}
				ops[ti] = append(th[:i:i], th[i+1:]...)
				trimmed = true
				break
			}
		}
		if !trimmed {
			return
		}
	}
}

// estimate approximates the axiomatic candidate count: every read has
// (writes-to-its-location + 1) rf choices and every location's writes
// permute.
func estimate(ops [][]opSpec, b Budget) int {
	writes := make([]int, b.Addrs)
	reads := make([]int, b.Addrs)
	for _, th := range ops {
		for _, op := range th {
			switch op.kind {
			case opLoad:
				reads[op.addr]++
			case opStore, opStoreReg:
				writes[op.addr]++
			case opRMW:
				reads[op.addr]++
				writes[op.addr]++
			}
		}
	}
	total := 1
	for a := 0; a < b.Addrs; a++ {
		for i := 0; i < reads[a]; i++ {
			total *= writes[a] + 1
			if total > complexityCap {
				return total
			}
		}
		for k := writes[a]; k > 1; k-- {
			total *= k
			if total > complexityCap {
				return total
			}
		}
	}
	return total
}

// lower turns the drawn operations into a checker.Program, assigning
// registers and observable names per thread (a0, a1 for thread 0, b0 for
// thread 1, ...) and observing every referenced location.
func lower(seed uint64, ops [][]opSpec, b Budget) checker.Program {
	p := checker.Program{Init: make(map[uint64]uint64)}
	used := make(map[int]bool)
	for ti, th := range ops {
		var prog isa.Program
		reg := isa.Reg(1)
		obs := 0
		var loadRegs []isa.Reg
		for _, op := range th {
			switch op.kind {
			case opLoad, opRMW:
				var in isa.Inst
				if op.kind == opLoad {
					in = isa.Load(reg, VarAddr(op.addr))
				} else {
					in = isa.RMW(reg, VarAddr(op.addr), op.val)
				}
				prog = append(prog, in)
				p.Regs = append(p.Regs, checker.RegObs{
					Thread: ti, Reg: reg, Name: obsName(ti, obs)})
				if op.kind == opLoad {
					loadRegs = append(loadRegs, reg)
				}
				reg++
				obs++
				used[op.addr] = true
			case opStore:
				prog = append(prog, isa.StoreImm(VarAddr(op.addr), op.val))
				used[op.addr] = true
			case opStoreReg:
				prog = append(prog, isa.StoreReg(VarAddr(op.addr), loadRegs[op.src]))
				used[op.addr] = true
			case opFence:
				prog = append(prog, isa.Fence())
			}
		}
		p.Threads = append(p.Threads, prog)
	}
	addrs := make([]int, 0, len(used))
	for a := range used {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		p.Init[VarAddr(a)] = 0
		p.Mem = append(p.Mem, checker.MemObs{Addr: VarAddr(a), Name: VarName(a)})
	}
	_ = seed
	return p
}

// obsName is the observable name of thread ti's i-th observed register.
func obsName(ti, i int) string {
	return fmt.Sprintf("%c%d", 'a'+ti, i)
}
