// ConsistencyChecker-style text rendering and parsing of litmus programs.
//
// The format follows the column layout of the ConsistencyChecker tool the
// paper used (one row per program-order slot, one column per thread), made
// machine-parseable: cells are separated by " | ", loads name their
// observable, and optional init/observe lines carry initial values and
// memory observables.
//
//	# any comment
//	init x=0 y=0
//	st x, 1      | st y, 2
//	ld x -> a0   | st x, 2
//	ld y -> a1   | .
//	observe [x] [y]
//
// Instructions: "st x, 1" (store immediate), "st x, a0" (store the register
// named a0 by an earlier load in the same thread), "ld x -> a0" (load, with
// the observable name optional), "rmw x, 1 -> a0" (atomic fetch-and-add,
// name optional), "fence". Empty cells ("." or blank) pad shorter threads.
package fuzz

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sesa/internal/checker"
	"sesa/internal/isa"
)

// varNames are the shared locations' names; each sits on its own cache line
// (the same 0x40 spacing the hand-written litmus suite uses).
var varNames = [...]string{"x", "y", "z", "w", "u", "v"}

// varBase is the first shared location's address.
const varBase = uint64(0x1000)

// VarAddr returns the address of the i-th shared location.
func VarAddr(i int) uint64 { return varBase + uint64(i)*0x40 }

// VarName returns the name of the i-th shared location.
func VarName(i int) string {
	if i >= 0 && i < len(varNames) {
		return varNames[i]
	}
	return fmt.Sprintf("v%d", i)
}

// varIndex resolves a location name, or -1.
func varIndex(name string) int {
	for i, n := range varNames {
		if n == name {
			return i
		}
	}
	return -1
}

// addrName renders a program address as a location name.
func addrName(addr uint64) (string, error) {
	if addr < varBase || (addr-varBase)%0x40 != 0 {
		return "", fmt.Errorf("fuzz: address %#x is not a named location", addr)
	}
	i := int((addr - varBase) / 0x40)
	if i >= len(varNames) {
		return "", fmt.Errorf("fuzz: address %#x beyond the %d named locations", addr, len(varNames))
	}
	return varNames[i], nil
}

// Render writes the program in the ConsistencyChecker-style text format.
// Programs whose loads are observed (as the generator and parser always
// arrange) round-trip: Parse(Render(p)) is structurally identical to p.
func Render(p checker.Program) (string, error) {
	regName := make(map[[2]int]string, len(p.Regs))
	for _, ro := range p.Regs {
		regName[[2]int{ro.Thread, int(ro.Reg)}] = ro.Name
	}

	cells := make([][]string, len(p.Threads))
	rows := 0
	for ti, th := range p.Threads {
		for _, in := range th {
			var cell string
			switch in.Op {
			case isa.OpStore:
				name, err := addrName(in.Addr)
				if err != nil {
					return "", err
				}
				if in.Src1 == isa.RegNone {
					cell = fmt.Sprintf("st %s, %d", name, in.Imm)
				} else {
					src, ok := regName[[2]int{ti, int(in.Src1)}]
					if !ok {
						return "", fmt.Errorf("fuzz: thread %d stores unobserved register r%d", ti, in.Src1)
					}
					cell = fmt.Sprintf("st %s, %s", name, src)
				}
			case isa.OpLoad:
				name, err := addrName(in.Addr)
				if err != nil {
					return "", err
				}
				cell = "ld " + name
				if obs, ok := regName[[2]int{ti, int(in.Dst)}]; ok {
					cell += " -> " + obs
				}
			case isa.OpRMW:
				name, err := addrName(in.Addr)
				if err != nil {
					return "", err
				}
				cell = fmt.Sprintf("rmw %s, %d", name, in.Imm)
				if obs, ok := regName[[2]int{ti, int(in.Dst)}]; ok {
					cell += " -> " + obs
				}
			case isa.OpFence:
				cell = "fence"
			default:
				return "", fmt.Errorf("fuzz: cannot render op %v", in.Op)
			}
			cells[ti] = append(cells[ti], cell)
		}
		if len(th) > rows {
			rows = len(th)
		}
	}

	var b strings.Builder
	if len(p.Init) > 0 {
		addrs := make([]uint64, 0, len(p.Init))
		for a := range p.Init {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		b.WriteString("init")
		for _, a := range addrs {
			name, err := addrName(a)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %s=%d", name, p.Init[a])
		}
		b.WriteByte('\n')
	}

	width := make([]int, len(p.Threads))
	for ti, th := range cells {
		width[ti] = 1
		for _, c := range th {
			if len(c) > width[ti] {
				width[ti] = len(c)
			}
		}
	}
	for row := 0; row < rows; row++ {
		for ti := range cells {
			cell := "."
			if row < len(cells[ti]) {
				cell = cells[ti][row]
			}
			if ti > 0 {
				b.WriteString(" | ")
			}
			if ti < len(cells)-1 {
				fmt.Fprintf(&b, "%-*s", width[ti], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}

	if len(p.Mem) > 0 {
		b.WriteString("observe")
		for _, mo := range p.Mem {
			fmt.Fprintf(&b, " [%s]", mo.Name)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Parse reads the text format back into a checker.Program. Register
// observables are rebuilt thread-major (all of thread 0's loads in program
// order, then thread 1's, ...), matching the generator's ordering so that
// outcome strings agree.
func Parse(src string) (checker.Program, error) {
	var p checker.Program
	var rows [][]string
	nThreads := 0
	var initLine, observeLine string

	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "init "), line == "init":
			if initLine != "" {
				return p, fmt.Errorf("fuzz: line %d: duplicate init line", ln+1)
			}
			initLine = strings.TrimSpace(strings.TrimPrefix(line, "init"))
		case strings.HasPrefix(line, "observe ") || line == "observe":
			if observeLine != "" {
				return p, fmt.Errorf("fuzz: line %d: duplicate observe line", ln+1)
			}
			observeLine = strings.TrimSpace(strings.TrimPrefix(line, "observe"))
		default:
			cells := strings.Split(line, "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			if len(cells) > nThreads {
				nThreads = len(cells)
			}
			rows = append(rows, cells)
		}
	}

	p.Init = make(map[uint64]uint64)
	if initLine != "" {
		for _, term := range strings.Fields(initLine) {
			name, valStr, ok := strings.Cut(term, "=")
			vi := varIndex(name)
			if !ok || vi < 0 {
				return p, fmt.Errorf("fuzz: bad init term %q", term)
			}
			var val uint64
			if _, err := fmt.Sscanf(valStr, "%d", &val); err != nil {
				return p, fmt.Errorf("fuzz: bad init term %q: %v", term, err)
			}
			p.Init[VarAddr(vi)] = val
		}
	}

	p.Threads = make([]isa.Program, nThreads)
	type namedReg struct {
		reg  isa.Reg
		name string
	}
	obsNames := make([][]namedReg, nThreads) // observed regs, program order
	regCount := make([]isa.Reg, nThreads)
	findReg := func(ti int, name string) (isa.Reg, bool) {
		for _, nr := range obsNames[ti] {
			if nr.name == name {
				return nr.reg, true
			}
		}
		return 0, false
	}

	for _, cells := range rows {
		for ti := 0; ti < nThreads; ti++ {
			cell := ""
			if ti < len(cells) {
				cell = cells[ti]
			}
			if cell == "" || cell == "." {
				continue
			}
			in, obs, err := parseInst(cell, func(name string) (isa.Reg, bool) {
				return findReg(ti, name)
			}, &regCount[ti])
			if err != nil {
				return p, fmt.Errorf("fuzz: thread %d: %v", ti, err)
			}
			p.Threads[ti] = append(p.Threads[ti], in)
			if obs != "" {
				obsNames[ti] = append(obsNames[ti], namedReg{reg: in.Dst, name: obs})
			}
		}
	}

	if !slices.ContainsFunc(p.Threads, func(th isa.Program) bool { return len(th) > 0 }) {
		return p, fmt.Errorf("fuzz: no instructions")
	}

	for ti, named := range obsNames {
		for _, nr := range named {
			p.Regs = append(p.Regs, checker.RegObs{Thread: ti, Reg: nr.reg, Name: nr.name})
		}
	}

	if observeLine != "" {
		for _, term := range strings.Fields(observeLine) {
			name := strings.TrimSuffix(strings.TrimPrefix(term, "["), "]")
			vi := varIndex(name)
			if vi < 0 {
				return p, fmt.Errorf("fuzz: bad observe term %q", term)
			}
			p.Mem = append(p.Mem, checker.MemObs{Addr: VarAddr(vi), Name: name})
		}
	}

	// Referenced locations default to initial value 0.
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Op.IsMem() {
				if _, ok := p.Init[in.Addr]; !ok {
					p.Init[in.Addr] = 0
				}
			}
		}
	}
	return p, nil
}

// maxReads is the most loads and RMWs one thread may hold: each takes a
// register of its own, r1 to r31.
const maxReads = isa.NumRegs - 1

// parseInst parses one cell. lookup resolves a register observable name
// bound earlier in the same thread; nextReg allocates fresh registers.
func parseInst(cell string, lookup func(string) (isa.Reg, bool), nextReg *isa.Reg) (isa.Inst, string, error) {
	fields := strings.Fields(cell)
	alloc := func() (isa.Reg, error) {
		if *nextReg == maxReads {
			return 0, fmt.Errorf("more than %d loads and RMWs, the registers r1 to r%d", maxReads, maxReads)
		}
		*nextReg++
		return *nextReg, nil
	}
	switch fields[0] {
	case "fence":
		if len(fields) != 1 {
			return isa.Inst{}, "", fmt.Errorf("bad instruction %q", cell)
		}
		return isa.Fence(), "", nil

	case "st":
		rest := strings.TrimSpace(strings.TrimPrefix(cell, "st"))
		name, valStr, ok := strings.Cut(rest, ",")
		vi := varIndex(strings.TrimSpace(name))
		if !ok || vi < 0 {
			return isa.Inst{}, "", fmt.Errorf("bad store %q", cell)
		}
		valStr = strings.TrimSpace(valStr)
		var val uint64
		if _, err := fmt.Sscanf(valStr, "%d", &val); err == nil {
			return isa.StoreImm(VarAddr(vi), val), "", nil
		}
		src, ok := lookup(valStr)
		if !ok {
			return isa.Inst{}, "", fmt.Errorf("store %q references unknown register %q", cell, valStr)
		}
		return isa.StoreReg(VarAddr(vi), src), "", nil

	case "ld":
		rest := strings.TrimSpace(strings.TrimPrefix(cell, "ld"))
		name, obs, _ := strings.Cut(rest, "->")
		vi := varIndex(strings.TrimSpace(name))
		if vi < 0 {
			return isa.Inst{}, "", fmt.Errorf("bad load %q", cell)
		}
		dst, err := alloc()
		if err != nil {
			return isa.Inst{}, "", err
		}
		return isa.Load(dst, VarAddr(vi)), strings.TrimSpace(obs), nil

	case "rmw":
		rest := strings.TrimSpace(strings.TrimPrefix(cell, "rmw"))
		body, obs, _ := strings.Cut(rest, "->")
		name, immStr, ok := strings.Cut(body, ",")
		vi := varIndex(strings.TrimSpace(name))
		if !ok || vi < 0 {
			return isa.Inst{}, "", fmt.Errorf("bad rmw %q", cell)
		}
		var imm uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(immStr), "%d", &imm); err != nil {
			return isa.Inst{}, "", fmt.Errorf("bad rmw %q: %v", cell, err)
		}
		dst, err := alloc()
		if err != nil {
			return isa.Inst{}, "", err
		}
		return isa.RMW(dst, VarAddr(vi), imm), strings.TrimSpace(obs), nil
	}
	return isa.Inst{}, "", fmt.Errorf("unknown instruction %q", cell)
}
