package fuzz

import (
	"testing"

	"sesa/internal/isa"
)

func TestGenerateDeterministic(t *testing.T) {
	b := DefaultBudget()
	for seed := uint64(0); seed < 50; seed++ {
		p1 := Generate(seed, b)
		p2 := Generate(seed, b)
		t1, err := Render(p1)
		if err != nil {
			t.Fatalf("seed %d: render: %v", seed, err)
		}
		t2, err := Render(p2)
		if err != nil {
			t.Fatalf("seed %d: render: %v", seed, err)
		}
		if t1 != t2 {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, t1, t2)
		}
	}
}

func TestGenerateRespectsBudget(t *testing.T) {
	budgets := []Budget{
		{Threads: 2, Ops: 2, Addrs: 1, Fences: 0, RMWs: 0},
		{Threads: 2, Ops: 4, Addrs: 2, Fences: 1, RMWs: 1},
		{Threads: 4, Ops: 6, Addrs: 3, Fences: 2, RMWs: 2},
		{Threads: 6, Ops: 3, Addrs: 6, Fences: 1, RMWs: 0},
	}
	for _, b := range budgets {
		if err := b.Validate(); err != nil {
			t.Fatalf("budget %v: %v", b, err)
		}
		for seed := uint64(0); seed < 200; seed++ {
			p := Generate(seed, b)
			if len(p.Threads) < 2 || len(p.Threads) > b.Threads {
				t.Fatalf("budget %v seed %d: %d threads", b, seed, len(p.Threads))
			}
			storesAt := map[uint64]int{}
			for ti, th := range p.Threads {
				if len(th) > b.Ops {
					t.Fatalf("budget %v seed %d thread %d: %d ops", b, seed, ti, len(th))
				}
				fences, rmws := 0, 0
				for _, in := range th {
					switch in.Op {
					case isa.OpFence:
						fences++
					case isa.OpRMW:
						rmws++
						storesAt[in.Addr]++
					case isa.OpStore:
						storesAt[in.Addr]++
					case isa.OpLoad:
					default:
						t.Fatalf("budget %v seed %d: unexpected op %v", b, seed, in.Op)
					}
					if in.Op.IsMem() {
						idx := int((in.Addr - varBase) / 0x40)
						if idx < 0 || idx >= b.Addrs {
							t.Fatalf("budget %v seed %d: addr %#x outside budget", b, seed, in.Addr)
						}
					}
				}
				if fences > b.Fences || rmws > b.RMWs {
					t.Fatalf("budget %v seed %d thread %d: %d fences, %d rmws", b, seed, ti, fences, rmws)
				}
			}
			for a, n := range storesAt {
				if n > maxStoresPerAddr {
					t.Fatalf("budget %v seed %d: %d stores to %#x", b, seed, n, a)
				}
			}
			if err := p.Threads[0].Validate(); err != nil {
				t.Fatalf("budget %v seed %d: %v", b, seed, err)
			}
		}
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in      string
		want    Budget
		wantErr bool
	}{
		{"", DefaultBudget(), false},
		{"threads=2,ops=4,addrs=2,fences=1,rmws=1", Budget{2, 4, 2, 1, 1}, false},
		{"threads=4", Budget{4, 4, 2, 1, 1}, false},
		{"ops=12,rmws=0", Budget{3, 12, 2, 1, 0}, false},
		{"threads=1", Budget{}, true},
		{"ops=99", Budget{}, true},
		{"bogus=3", Budget{}, true},
		{"threads", Budget{}, true},
		{"threads=6,ops=12", Budget{}, true}, // up to 78 memory events
		{"threads=3junk", Budget{}, true},
		{"ops=4.5", Budget{}, true},
	}
	for _, c := range cases {
		got, err := ParseBudget(c.in)
		if c.wantErr != (err != nil) {
			t.Fatalf("ParseBudget(%q): err=%v, wantErr=%v", c.in, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseBudget(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// String/Parse round trip.
	b := Budget{4, 6, 3, 2, 1}
	got, err := ParseBudget(b.String())
	if err != nil || got != b {
		t.Fatalf("round trip %v -> %v (%v)", b, got, err)
	}
}

// FuzzParseBudget drives the -budget parser with arbitrary values, seeded
// with the flag values CI passes: it must never panic, and a budget it
// accepts, rendered with String, parses back to itself.
func FuzzParseBudget(f *testing.F) {
	for _, s := range []string{"threads=4,ops=6,addrs=3,fences=1,rmws=2", "mp,n6,iriw", "370-SLFSoS-key", "all", "none"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseBudget(s)
		if err != nil {
			return
		}
		again, err := ParseBudget(b.String())
		if err != nil || again != b {
			t.Fatalf("ParseBudget(%q) = %v, whose rendering %q parses to %v (err %v)", s, b, b.String(), again, err)
		}
	})
}
