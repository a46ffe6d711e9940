// Package tracefile serializes programs and workloads to a line-oriented
// text format, so generated traces can be inspected, archived and replayed
// byte-identically — the artifact-evaluation workflow for a trace-driven
// simulator.
//
// Format (one instruction per line, '#' comments, blank lines ignored):
//
//	# sesa trace v1
//	thread 0
//	ld   r1, [0x1000]            ; optional "size=4" and "dep=r8" suffixes
//	st   [0x1008], 42
//	st   [0x1010], r3
//	alu  r2, r1, r0, imm=5, lat=2
//	br   pc=0x400, taken
//	fence
//	rmw  r1, [0x2000], add=1
//	thread 1
//	...
//
// Loads, stores and RMWs take optional size= and dep= suffixes, and every
// instruction but fence and nop an optional pc=. Read rejects any other
// option, fields after fence or nop, and a value that overflows its field,
// so a file reads back exactly as Write would write it.
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"sesa/internal/isa"
)

// Header is the first line of every trace file.
const Header = "# sesa trace v1"

// Write serializes the per-thread programs.
func Write(w io.Writer, threads []isa.Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, Header)
	for ti, p := range threads {
		fmt.Fprintf(bw, "thread %d\n", ti)
		for _, in := range p {
			if err := writeInst(bw, in); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeInst(w io.Writer, in isa.Inst) error {
	var err error
	switch in.Op {
	case isa.OpLoad:
		_, err = fmt.Fprintf(w, "ld r%d, [%#x]%s%s%s\n",
			in.Dst, in.Addr, sizeSuffix(in), depSuffix(in), pcSuffix(in))
	case isa.OpStore:
		if in.Src1 == isa.RegNone {
			_, err = fmt.Fprintf(w, "st [%#x], %d%s%s%s\n",
				in.Addr, in.Imm, sizeSuffix(in), depSuffix(in), pcSuffix(in))
		} else {
			_, err = fmt.Fprintf(w, "st [%#x], r%d%s%s%s\n",
				in.Addr, in.Src1, sizeSuffix(in), depSuffix(in), pcSuffix(in))
		}
	case isa.OpALU:
		_, err = fmt.Fprintf(w, "alu r%s, r%s, r%s, imm=%d, lat=%d%s\n",
			regStr(in.Dst), regStr(in.Src1), regStr(in.Src2), in.Imm, in.Lat, pcSuffix(in))
	case isa.OpBranch:
		taken := "nottaken"
		if in.Taken {
			taken = "taken"
		}
		_, err = fmt.Fprintf(w, "br pc=%#x, %s\n", in.PC, taken)
	case isa.OpFence:
		_, err = fmt.Fprintln(w, "fence")
	case isa.OpRMW:
		_, err = fmt.Fprintf(w, "rmw r%d, [%#x], add=%d%s%s%s\n",
			in.Dst, in.Addr, in.Imm, sizeSuffix(in), depSuffix(in), pcSuffix(in))
	case isa.OpNop:
		_, err = fmt.Fprintln(w, "nop")
	default:
		return fmt.Errorf("tracefile: cannot serialize op %v", in.Op)
	}
	return err
}

func regStr(r isa.Reg) string {
	if r == isa.RegNone {
		return "_"
	}
	return strconv.Itoa(int(r))
}

func sizeSuffix(in isa.Inst) string {
	if in.Size == 0 {
		return ""
	}
	return fmt.Sprintf(", size=%d", in.Size)
}

func depSuffix(in isa.Inst) string {
	if in.Src2 == isa.RegNone {
		return ""
	}
	return fmt.Sprintf(", dep=r%d", in.Src2)
}

func pcSuffix(in isa.Inst) string {
	if in.PC == 0 {
		return ""
	}
	return fmt.Sprintf(", pc=%#x", in.PC)
}

// Read parses a trace file back into per-thread programs.
func Read(r io.Reader) ([]isa.Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB; the buffer grows to fit
	var threads []isa.Program
	cur := -1
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !sawHeader {
				if line != Header {
					return nil, fmt.Errorf("tracefile:%d: bad header %q", lineNo, line)
				}
				sawHeader = true
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("tracefile:%d: missing %q header", lineNo, Header)
		}
		if strings.HasPrefix(line, "thread ") {
			id, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "thread ")))
			if err != nil || id != len(threads) {
				return nil, fmt.Errorf("tracefile:%d: threads must be declared in order, got %q", lineNo, line)
			}
			threads = append(threads, isa.Program{})
			cur = id
			continue
		}
		if cur < 0 {
			return nil, fmt.Errorf("tracefile:%d: instruction before any thread declaration", lineNo)
		}
		in, err := parseInst(line)
		if err != nil {
			return nil, fmt.Errorf("tracefile:%d: %v", lineNo, err)
		}
		threads[cur] = append(threads[cur], in)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for ti, p := range threads {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("tracefile: thread %d: %v", ti, err)
		}
	}
	return threads, nil
}

// parseInst parses one instruction line.
func parseInst(line string) (isa.Inst, error) {
	op, rest, _ := strings.Cut(line, " ")
	fields := splitFields(rest)
	switch op {
	case "ld":
		if len(fields) < 2 {
			return isa.Inst{}, fmt.Errorf("ld needs a register and an address")
		}
		dst, err := parseReg(fields[0])
		if err != nil {
			return isa.Inst{}, err
		}
		addr, err := parseAddr(fields[1])
		if err != nil {
			return isa.Inst{}, err
		}
		in := isa.Load(dst, addr)
		return applyOptions(in, fields[2:], "size", "dep", "pc")
	case "st":
		if len(fields) < 2 {
			return isa.Inst{}, fmt.Errorf("st needs an address and a value")
		}
		addr, err := parseAddr(fields[0])
		if err != nil {
			return isa.Inst{}, err
		}
		var in isa.Inst
		if strings.HasPrefix(fields[1], "r") {
			src, err := parseReg(fields[1])
			if err != nil {
				return isa.Inst{}, err
			}
			in = isa.StoreReg(addr, src)
		} else {
			v, err := parseUint(fields[1])
			if err != nil {
				return isa.Inst{}, err
			}
			in = isa.StoreImm(addr, v)
		}
		return applyOptions(in, fields[2:], "size", "dep", "pc")
	case "alu":
		if len(fields) < 3 {
			return isa.Inst{}, fmt.Errorf("alu needs three register operands")
		}
		dst, err := parseRegOrNone(fields[0])
		if err != nil {
			return isa.Inst{}, err
		}
		s1, err := parseRegOrNone(fields[1])
		if err != nil {
			return isa.Inst{}, err
		}
		s2, err := parseRegOrNone(fields[2])
		if err != nil {
			return isa.Inst{}, err
		}
		in := isa.Inst{Op: isa.OpALU, Dst: dst, Src1: s1, Src2: s2}
		return applyOptions(in, fields[3:], "imm", "lat", "pc")
	case "br":
		in := isa.Inst{Op: isa.OpBranch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
		return applyOptions(in, fields, "pc", "taken", "nottaken")
	case "fence", "nop":
		if len(fields) > 0 {
			return isa.Inst{}, fmt.Errorf("%s takes no operands, got %q", op, rest)
		}
		if op == "fence" {
			return isa.Fence(), nil
		}
		return isa.Nop(), nil
	case "rmw":
		if len(fields) < 2 {
			return isa.Inst{}, fmt.Errorf("rmw needs a register and an address")
		}
		dst, err := parseReg(fields[0])
		if err != nil {
			return isa.Inst{}, err
		}
		addr, err := parseAddr(fields[1])
		if err != nil {
			return isa.Inst{}, err
		}
		in := isa.RMW(dst, addr, 0)
		return applyOptions(in, fields[2:], "add", "size", "dep", "pc")
	}
	return isa.Inst{}, fmt.Errorf("unknown mnemonic %q", op)
}

// applyOptions parses the suffix fields: key=value options and the bare
// taken/nottaken flags. allowed names the options the instruction carries,
// which are exactly those Write emits for it, so nothing read is dropped on
// the way back out. A value that overflows its field is an error.
func applyOptions(in isa.Inst, opts []string, allowed ...string) (isa.Inst, error) {
	for _, o := range opts {
		key, val, hasVal := strings.Cut(o, "=")
		flag := key == "taken" || key == "nottaken"
		if !slices.Contains(allowed, key) || hasVal == flag {
			return in, fmt.Errorf("bad option %q for %v", o, in.Op)
		}
		var err error
		switch key {
		case "taken", "nottaken":
			in.Taken = key == "taken"
		case "dep":
			in.Src2, err = parseReg(val)
		case "size":
			in.Size, err = parseUint8(val)
		case "lat":
			in.Lat, err = parseUint8(val)
		case "imm", "add":
			in.Imm, err = parseUint(val)
		case "pc":
			in.PC, err = parseUint(val)
		}
		if err != nil {
			return in, fmt.Errorf("bad option %q: %v", o, err)
		}
	}
	return in, nil
}

func splitFields(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseReg(s string) (isa.Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	v, err := strconv.Atoi(s[1:])
	if err != nil || v < 0 || v >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(v), nil
}

func parseRegOrNone(s string) (isa.Reg, error) {
	if s == "r_" || s == "_" {
		return isa.RegNone, nil
	}
	return parseReg(s)
}

func parseAddr(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(s, "]"), "[")
	return parseUint(s)
}

func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(s, 0, 64)
}

func parseUint8(s string) (uint8, error) {
	v, err := strconv.ParseUint(s, 0, 8)
	return uint8(v), err
}
