package axiomatic

import (
	"testing"

	"sesa/internal/checker"
	"sesa/internal/isa"
)

// randomProgram builds a small 2-thread program over two variables from a
// seed: loads, stores, fences and the occasional RMW.
func randomProgram(seed uint64) checker.Program {
	rng := seed
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}
	vars := []uint64{0x100, 0x140}
	p := checker.Program{Init: map[uint64]uint64{0x100: 0, 0x140: 0}}
	reg := isa.Reg(1)
	for th := 0; th < 2; th++ {
		var prog isa.Program
		n := 2 + int(next()%3)
		for i := 0; i < n; i++ {
			addr := vars[next()%2]
			switch next() % 5 {
			case 0, 1:
				prog = append(prog, isa.Load(reg, addr))
				p.Regs = append(p.Regs, checker.RegObs{
					Thread: th, Reg: reg,
					Name: string(rune('a'+th)) + string(rune('0'+int(reg)%10)),
				})
				reg++
			case 2:
				prog = append(prog, isa.StoreImm(addr, 1+next()%3))
			case 3:
				prog = append(prog, isa.Fence())
			case 4:
				prog = append(prog, isa.RMW(reg, addr, 1))
				p.Regs = append(p.Regs, checker.RegObs{
					Thread: th, Reg: reg,
					Name: string(rune('a'+th)) + string(rune('0'+int(reg)%10)),
				})
				reg++
			}
		}
		p.Threads = append(p.Threads, prog)
	}
	p.Mem = []checker.MemObs{{Addr: 0x100, Name: "x"}, {Addr: 0x140, Name: "y"}}
	return p
}

// TestRandomProgramsAgree: the axiomatic and operational formulations
// produce identical outcome sets on randomly generated programs, for all
// three models. Two completely different algorithms (state-space search vs
// candidate-execution filtering) agreeing over a large random sample is the
// strongest internal-consistency evidence in the repository.
func TestRandomProgramsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("random agreement sweep is slow")
	}
	pairs := []struct {
		ax Model
		op checker.Model
	}{
		{X86TSO, checker.X86TSO},
		{TSO370, checker.TSO370},
		{SC, checker.SC},
	}
	for seed := uint64(1); seed <= 1000; seed++ {
		p := randomProgram(seed * 2654435761)
		for _, pr := range pairs {
			ax, err := Enumerate(p, pr.ax)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pr.ax, err)
			}
			op := checker.Enumerate(p, pr.op)
			for o := range op {
				if !ax.Contains(o) {
					t.Fatalf("seed %d %s: operational outcome %q not axiomatic\nprogram: %v",
						seed, pr.ax, o, p.Threads)
				}
			}
			for o := range ax {
				if !op.Contains(o) {
					t.Fatalf("seed %d %s: axiomatic outcome %q not operational\nprogram: %v",
						seed, pr.ax, o, p.Threads)
				}
			}
		}
	}
}
