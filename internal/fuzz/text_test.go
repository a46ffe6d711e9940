package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sesa/internal/checker"
	"sesa/internal/isa"
)

func TestRenderParseRoundTrip(t *testing.T) {
	b := Budget{Threads: 4, Ops: 6, Addrs: 3, Fences: 1, RMWs: 1}
	for seed := uint64(0); seed < 100; seed++ {
		p := Generate(seed, b)
		text, err := Render(p)
		if err != nil {
			t.Fatalf("seed %d: render: %v", seed, err)
		}
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("seed %d: parse:\n%s\n%v", seed, text, err)
		}
		if !reflect.DeepEqual(p.Threads, q.Threads) {
			t.Fatalf("seed %d: threads differ after round trip:\n%s", seed, text)
		}
		if !reflect.DeepEqual(p.Regs, q.Regs) || !reflect.DeepEqual(p.Mem, q.Mem) {
			t.Fatalf("seed %d: observables differ after round trip:\n%s", seed, text)
		}
		if !reflect.DeepEqual(p.Init, q.Init) {
			t.Fatalf("seed %d: init differs after round trip:\n%s", seed, text)
		}
		// Structural identity (checked above for every seed) already implies
		// identical outcomes; enumerate a sample anyway as an end-to-end
		// check that rendering changed no semantics.
		if seed%20 != 0 {
			continue
		}
		for _, m := range []checker.Model{checker.SC, checker.TSO370, checker.X86TSO} {
			po, qo := checker.Enumerate(p, m), checker.Enumerate(q, m)
			if !reflect.DeepEqual(po, qo) {
				t.Fatalf("seed %d %s: outcome sets differ after round trip", seed, m)
			}
		}
	}
}

func TestParseHandWritten(t *testing.T) {
	src := `
# n6, Figure 2 of the paper
init x=0 y=0
st x, 1    | st y, 2
ld x -> a0 | st x, 2
ld y -> a1 | .
observe [x] [y]
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Threads) != 2 || len(p.Threads[0]) != 3 || len(p.Threads[1]) != 2 {
		t.Fatalf("unexpected shape: %v", p.Threads)
	}
	if p.Threads[0][1].Op != isa.OpLoad || p.Threads[0][1].Addr != VarAddr(0) {
		t.Fatalf("thread 0 inst 1 = %v", p.Threads[0][1])
	}
	if len(p.Regs) != 2 || p.Regs[0].Name != "a0" || p.Regs[1].Name != "a1" {
		t.Fatalf("regs = %v", p.Regs)
	}
	if len(p.Mem) != 2 || p.Mem[0].Name != "x" || p.Mem[1].Name != "y" {
		t.Fatalf("mem = %v", p.Mem)
	}
	// The parsed program must reproduce the paper's n6 sets: the signature
	// outcome is x86-only.
	diff := checker.Compare(p, checker.X86TSO, checker.TSO370)
	found := false
	for _, o := range diff {
		if o == "a0=1 a1=0 [x]=1 [y]=2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("n6 signature missing from x86-vs-370 diff: %v", diff)
	}
}

func TestParseStoreReg(t *testing.T) {
	src := `
ld x -> a0 | st y, 7
st y, a0   | .
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Threads[0][1]
	if st.Op != isa.OpStore || st.Src1 != p.Regs[0].Reg {
		t.Fatalf("store-reg did not bind the load's register: %v", st)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                           // no rows
		".",                          // no instructions
		"init x=0\n. | .",            // no instructions in any thread
		"ld q -> a0",                 // unknown variable
		"st x",                       // malformed store
		"st x, nosuch",               // unknown register name
		"frob x",                     // unknown mnemonic
		"init x=zz\nld x",            // bad init value
		"ld x\nobserve [q]",          // bad observe
		"rmw x -> a0",                // rmw without addend
		"init x=1\ninit y=2\nld x",   // duplicate init
		readsInThread1(maxReads + 1), // more reads than registers
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// readsInThread1 is a two-thread program whose second thread holds n reads,
// every fourth an RMW and the rest loads, each observed.
func readsInThread1(n int) string {
	var b strings.Builder
	b.WriteString("st x, 1 | ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(". | ")
		}
		if i%4 == 3 {
			fmt.Fprintf(&b, "rmw x, 1 -> a%d\n", i)
		} else {
			fmt.Fprintf(&b, "ld x -> a%d\n", i)
		}
	}
	return b.String()
}

// TestParseReadLimit: each load or RMW of a thread takes a register of its
// own, so a thread may hold 31. Parse rejects the 32nd, naming the thread
// and the limit, and a thread of 31 cross-validates three ways.
func TestParseReadLimit(t *testing.T) {
	_, err := Parse(readsInThread1(maxReads + 1))
	if err == nil || !strings.Contains(err.Error(), "thread 1") || !strings.Contains(err.Error(), "r31") {
		t.Fatalf("32 reads in thread 1: want an error naming the thread and r31, got %v", err)
	}
	p, err := Parse(readsInThread1(maxReads))
	if err != nil {
		t.Fatalf("31 reads in thread 1: %v", err)
	}
	if n := len(p.Threads[1]); n != maxReads {
		t.Fatalf("thread 1 holds %d instructions, want %d", n, maxReads)
	}
	rep, err := CrossValidate(p, DefaultOptions())
	if err != nil {
		t.Fatalf("31 reads in thread 1: %v", err)
	}
	if !rep.Ok() || rep.Witnessed == 0 {
		t.Fatalf("31 reads in thread 1: %d witnessed outcomes, mismatches %v", rep.Witnessed, rep.Mismatches)
	}
}

func TestRenderRejectsUnnameableAddr(t *testing.T) {
	p := checker.Program{
		Threads: []isa.Program{{isa.Load(1, 0x9999)}},
		Init:    map[uint64]uint64{},
	}
	if _, err := Render(p); err == nil || !strings.Contains(err.Error(), "named location") {
		t.Fatalf("want named-location error, got %v", err)
	}
}

// FuzzParseRender checks the text format on any input: Parse returns an
// error rather than panicking, every thread of a program it accepts passes
// isa.Program.Validate, Render accepts the program, and the rendered text is
// a fixed point: parsing and rendering it again gives it back. The seed
// corpus is the regression corpus's programs.
func FuzzParseRender(f *testing.F) {
	files, err := filepath.Glob("../../testdata/fuzz_corpus/*.litmus")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed programs in testdata/fuzz_corpus: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		for ti, th := range p.Threads {
			if err := th.Validate(); err != nil {
				t.Fatalf("Parse accepts thread %d, which fails Validate: %v\ninput:\n%s", ti, err, src)
			}
		}
		text, err := Render(p)
		if err != nil {
			t.Fatalf("Render rejects a parsed program: %v\ninput:\n%s", err, src)
		}
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse rejects rendered text: %v\ntext:\n%s", err, text)
		}
		again, err := Render(q)
		if err != nil || again != text {
			t.Fatalf("rendering is not a fixed point (err %v):\n%s\nthen:\n%s", err, text, again)
		}
	})
}
