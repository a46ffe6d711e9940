package tracefile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sesa/internal/isa"
	"sesa/internal/trace"
)

func roundTrip(t *testing.T, threads []isa.Program) []isa.Program {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, threads); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read back failed: %v\nfile:\n%s", err, buf.String())
	}
	return got
}

// handWritten covers every instruction form and option of the format.
var handWritten = []isa.Program{
	{
		isa.Load(1, 0x1000),
		{Op: isa.OpLoad, Dst: 1, Src1: isa.RegNone, Src2: 8, Addr: 0x104, Size: 4, PC: 0x400},
		isa.StoreImm(0x1008, 42),
		isa.StoreReg(0x1010, 3),
		isa.ALUImm(2, 1, 5, 2),
		isa.Branch(0x404, true),
		isa.Fence(),
		isa.RMW(4, 0x2000, 1),
		{Op: isa.OpRMW, Dst: 5, Src1: isa.RegNone, Src2: 2, Addr: 0x2004, Size: 4, Imm: 3, PC: 0x408},
		isa.Nop(),
	},
	{
		isa.Branch(0x500, false),
		isa.Load(7, 0x3000),
	},
}

func TestRoundTripHandWritten(t *testing.T) {
	threads := handWritten
	got := roundTrip(t, threads)
	if len(got) != 2 {
		t.Fatalf("threads = %d", len(got))
	}
	for ti := range threads {
		if len(got[ti]) != len(threads[ti]) {
			t.Fatalf("thread %d: %d instructions, want %d", ti, len(got[ti]), len(threads[ti]))
		}
		for i := range threads[ti] {
			if want, have := threads[ti][i], got[ti][i]; want != have {
				t.Errorf("thread %d inst %d: %+v != %+v", ti, i, have, want)
			}
		}
	}
}

// TestRoundTripGeneratedWorkloads: every Table IV profile's generated trace
// survives a byte round trip.
func TestRoundTripGeneratedWorkloads(t *testing.T) {
	for _, name := range []string{"barnes", "x264", "505.mcf"} {
		p, _ := trace.Lookup(name)
		w := trace.Build(p, 2, 1500, 7)
		got := roundTrip(t, w.Programs)
		for ti := range w.Programs {
			for i := range w.Programs[ti] {
				a, b := w.Programs[ti][i], got[ti][i]
				if a.Op != b.Op || a.Addr != b.Addr || a.Imm != b.Imm ||
					a.Dst != b.Dst || a.Src1 != b.Src1 || a.Src2 != b.Src2 ||
					a.Taken != b.Taken || a.Lat != b.Lat || a.EffSize() != b.EffSize() {
					t.Fatalf("%s thread %d inst %d: %+v != %+v", name, ti, i, b, a)
				}
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"ld r1, [0x100]",                        // no header
		"# sesa trace v2\nthread 0\n",           // bad header
		Header + "\nld r1, [0x100]\n",           // inst before thread
		Header + "\nthread 1\n",                 // out-of-order thread ids
		Header + "\nthread 0\nfoo r1\n",         // unknown mnemonic
		Header + "\nthread 0\nld r99, [0x0]\n",  // bad register
		Header + "\nthread 0\nld r1, [0x101]\n", // misaligned (Validate)
		Header + "\nthread 0\nld r1\n",          // missing operand
		Header + "\nthread 0\nld r1, [0x100], bogus=1\n",
		// A value that overflows its field.
		Header + "\nthread 0\nalu r1, r2, r3, imm=1, lat=300\n",
		Header + "\nthread 0\nld r1, [0x0], size=264\n",
		// An option the instruction does not carry.
		Header + "\nthread 0\nld r1, [0x0], lat=10\n",
		Header + "\nthread 0\nld r1, [0x0], imm=1\n",
		Header + "\nthread 0\nld r1, [0x0], taken\n",
		Header + "\nthread 0\nst 0,0,lat=10\n",
		Header + "\nthread 0\nst [0x0], r1, imm=5\n",
		Header + "\nthread 0\nst [0x0], 1, nottaken\n",
		Header + "\nthread 0\nalu r1, r2, r3, size=4\n",
		Header + "\nthread 0\nbr pc=0x40, taken=1\n",
		// Trailing fields after an instruction without operands.
		Header + "\nthread 0\nfence extra\n",
		Header + "\nthread 0\nnop 1\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted:\n%s", i, c)
		}
	}
}

// TestRMWSizeRoundTrips: an RMW keeps its access size through Write and
// Read.
func TestRMWSizeRoundTrips(t *testing.T) {
	in := Header + "\nthread 0\nrmw r1, [0x8], add=3, size=4\n"
	threads, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := roundTrip(t, threads); got[0][0] != threads[0][0] || got[0][0].Size != 4 {
		t.Fatalf("rmw read as %+v, after a round trip %+v", threads[0][0], got[0][0])
	}
}

func TestReadToleratesCommentsAndBlanks(t *testing.T) {
	in := Header + "\n\n# a comment\nthread 0\n\nld r1, [0x100]\n# trailing\n"
	threads, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(threads) != 1 || len(threads[0]) != 1 {
		t.Fatalf("parsed %v", threads)
	}
}

// TestRoundTripProperty: arbitrary valid instructions survive the trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(dst, src uint8, addrWords uint32, v uint64, lat uint8, taken bool) bool {
		d := isa.Reg(dst % isa.NumRegs)
		s := isa.Reg(src % isa.NumRegs)
		addr := uint64(addrWords) * 8
		prog := isa.Program{
			isa.Load(d, addr),
			isa.StoreImm(addr, v),
			isa.StoreReg(addr, s),
			isa.ALUImm(d, s, v, lat),
			isa.Branch(0x40, taken),
			isa.RMW(d, addr, v),
		}
		var buf bytes.Buffer
		if err := Write(&buf, []isa.Program{prog}); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != 1 || len(got[0]) != len(prog) {
			return false
		}
		for i := range prog {
			a, b := prog[i], got[0][i]
			if a.Op != b.Op || a.Addr != b.Addr || a.Imm != b.Imm || a.Taken != b.Taken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzTracefileRoundTrip: Read never panics, and every input it accepts is
// read back unchanged after a Write: Read(Write(Read(x))) == Read(x). The
// seed corpus is the hand-written program, short generated workloads and
// the rejected inputs.
func FuzzTracefileRoundTrip(f *testing.F) {
	seeds := [][]isa.Program{handWritten}
	for _, name := range []string{"barnes", "x264", "505.mcf"} {
		p, _ := trace.Lookup(name)
		seeds = append(seeds, trace.Build(p, 2, 40, 7).Programs)
	}
	for _, threads := range seeds {
		var buf bytes.Buffer
		if err := Write(&buf, threads); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(Header + "\nthread 0\nrmw r1, [0x8], add=3, size=4\nalu r1, r2, r3, imm=1, lat=300\n")
	f.Fuzz(func(t *testing.T, src string) {
		threads, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, threads); err != nil {
			t.Fatalf("Write rejects what Read accepted: %v", err)
		}
		text := buf.String()
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read rejects what Write wrote: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(again, threads) {
			t.Fatalf("round trip changed the program:\nread    %+v\nwritten %s\nre-read %+v", threads, text, again)
		}
	})
}
