package checker_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sesa/internal/checker"
	"sesa/internal/fuzz"
	"sesa/internal/isa"
	"sesa/internal/litmus"
)

// fmtRender is the renderer RenderOutcome replaced: one fmt.Sprintf per
// observable, joined by strings.Join.
func fmtRender(p checker.Program, st checker.FinalState) checker.Outcome {
	parts := make([]string, 0, len(p.Regs)+len(p.Mem))
	for _, r := range p.Regs {
		parts = append(parts, fmt.Sprintf("%s=%d", r.Name, st.Reg(r.Thread, r.Reg)))
	}
	for _, mo := range p.Mem {
		parts = append(parts, fmt.Sprintf("[%s]=%d", mo.Name, st.Mem(mo.Addr)))
	}
	return checker.Outcome(strings.Join(parts, " "))
}

// vector is a final state that gives each observable of a program one value.
type vector struct {
	regs map[[2]int]uint64
	mem  map[uint64]uint64
}

func (v vector) Reg(thread int, r isa.Reg) uint64 { return v.regs[[2]int{thread, int(r)}] }
func (v vector) Mem(addr uint64) uint64           { return v.mem[addr] }

// vectors returns final states of p that give its observables the edge
// values: every observable 0, every one math.MaxUint64, and the edge values
// in turn.
func vectors(p checker.Program) []vector {
	edges := []uint64{0, 1, 9, 10, 255, 256, 1 << 32, 1 << 63, math.MaxUint64}
	var out []vector
	for k := -2; k < len(edges); k++ {
		v := vector{regs: map[[2]int]uint64{}, mem: map[uint64]uint64{}}
		value := func(i int) uint64 {
			switch k {
			case -2:
				return 0
			case -1:
				return math.MaxUint64
			}
			return edges[(k+i)%len(edges)]
		}
		for i, r := range p.Regs {
			v.regs[[2]int{r.Thread, int(r.Reg)}] = value(i)
		}
		for i, mo := range p.Mem {
			v.mem[mo.Addr] = value(len(p.Regs) + i)
		}
		out = append(out, v)
	}
	return out
}

// TestRenderOutcomeMatchesFmt: RenderOutcome writes exactly what the fmt
// renderer wrote, for every litmus test, every corpus program and edge
// programs (registers only, memory only, neither, and one whose outcome
// outgrows RenderOutcome's stack buffer), each under edge values.
func TestRenderOutcomeMatchesFmt(t *testing.T) {
	progs := map[string]checker.Program{}
	for _, lt := range litmus.Tests() {
		progs["litmus/"+lt.Name] = lt.Prog
	}
	files, err := filepath.Glob("../../testdata/fuzz_corpus/*.litmus")
	if err != nil || len(files) == 0 {
		t.Fatalf("want programs in testdata/fuzz_corpus: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fuzz.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs["corpus/"+filepath.Base(f)] = p
	}
	progs["registers only"] = litmus.MP().Prog
	progs["memory only"] = litmus.TwoPlusTwoW().Prog
	progs["neither"] = checker.Program{Threads: litmus.MP().Prog.Threads}
	long := checker.Program{}
	for i := 0; i < 12; i++ {
		long.Regs = append(long.Regs, checker.RegObs{Thread: i % 3, Reg: isa.Reg(1 + i/3), Name: fmt.Sprintf("register_%d", i)})
		long.Mem = append(long.Mem, checker.MemObs{Addr: uint64(0x1000 + 0x40*i), Name: fmt.Sprintf("location_%d", i)})
	}
	progs["long"] = long

	for name, p := range progs {
		for _, v := range vectors(p) {
			got, want := checker.RenderOutcome(p, v), fmtRender(p, v)
			if got != want {
				t.Errorf("%s: RenderOutcome = %q, fmt renders %q", name, got, want)
			}
		}
	}
	if got := checker.RenderOutcome(progs["neither"], vector{}); got != "" {
		t.Errorf("no observables rendered %q, want the empty outcome", got)
	}
}
