package litmus

import (
	"slices"
	"strings"
	"testing"

	"sesa/internal/checker"
	"sesa/internal/config"
)

// TestAllowedSetsMatchPaper pins each test's headline claim through the
// exhaustive checker.
func TestAllowedSetsMatchPaper(t *testing.T) {
	cases := []struct {
		test  Test
		inX86 bool // Interesting outcome allowed under x86-TSO
		in370 bool // ... under store-atomic TSO
	}{
		{MP(), false, false},
		{N6(), true, false},
		{N6Fence(), false, false},
		{IRIW(), false, false},
		{Fig5(), true, false},
		{Fig4(), true, true},
		{SB(), true, true},
		{SBFence(), false, false},
		{LB(), false, false},
		{WRC(), false, false},
		{CoRR(), false, false},
		{S(), false, false},
		{TwoPlusTwoW(), false, false},
		{R(), true, true},
		{RFence(), false, false},
	}
	for _, c := range cases {
		t.Run(c.test.Name, func(t *testing.T) {
			if got := c.test.Allowed(checker.X86TSO).Contains(c.test.Interesting); got != c.inX86 {
				t.Errorf("x86-TSO allows %q = %v, want %v", c.test.Interesting, got, c.inX86)
			}
			if got := c.test.Allowed(checker.TSO370).Contains(c.test.Interesting); got != c.in370 {
				t.Errorf("370-TSO allows %q = %v, want %v", c.test.Interesting, got, c.in370)
			}
		})
	}
}

// TestSimOutcomesWithinAllowedSets is the central cross-validation: every
// outcome the cycle-accurate machine produces must lie in the exhaustive
// allowed set of the corresponding operational model. x86 machines are
// bounded by x86-TSO; all four 370 machines by store-atomic TSO.
func TestSimOutcomesWithinAllowedSets(t *testing.T) {
	if testing.Short() {
		t.Skip("witness search is slow")
	}
	for _, base := range Tests() {
		for _, variant := range []Test{base, WithSBPressure(base, 3)} {
			allowedBase := base // allowed sets computed on the unpressured program
			for _, model := range config.AllModels() {
				res, err := Run(variant, model, 12, 0xC0FFEE)
				if err != nil {
					t.Fatalf("%s on %s: %v", variant.Name, model, err)
				}
				allowed := allowedBase.Allowed(CheckerModelFor(model))
				for o, n := range res.Outcomes {
					if !allowed.Contains(o) {
						t.Errorf("%s on %s: outcome %q (seen %d times) outside the allowed set %v",
							variant.Name, model, o, n, allowed.Sorted())
					}
				}
			}
		}
	}
}

// TestX86WitnessesN6 checks that the simulator's x86 machine actually
// exhibits the Figure 2 store-atomicity violation once the store buffer has
// backlog — the behaviour the authors measured on real Intel parts.
func TestX86WitnessesN6(t *testing.T) {
	test := WithSBPressure(N6(), 3)
	res, err := Run(test, config.X86, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Observed(N6().Interesting) {
		t.Errorf("x86 machine never witnessed %q; outcomes: %v",
			N6().Interesting, res.Outcomes)
	}
}

// TestX86WitnessesFig5Disagreement checks that two x86 cores can disagree
// about the order of their independent stores (Figure 5).
func TestX86WitnessesFig5Disagreement(t *testing.T) {
	test := WithSBPressure(Fig5(), 3)
	res, err := Run(test, config.X86, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Observed(Fig5().Interesting) {
		t.Errorf("x86 machine never witnessed %q; outcomes: %v",
			Fig5().Interesting, res.Outcomes)
	}
}

// TestStoreAtomicMachinesNeverViolate runs the two violation tests hard on
// all four 370 machines and checks the signatures never appear.
func TestStoreAtomicMachinesNeverViolate(t *testing.T) {
	models := []config.Model{
		config.NoSpec370, config.SLFSpec370, config.SLFSoS370, config.SLFSoSKey370,
	}
	for _, base := range []Test{N6(), Fig5()} {
		test := WithSBPressure(base, 3)
		for _, model := range models {
			res, err := Run(test, model, 10, 13)
			if err != nil {
				t.Fatal(err)
			}
			if res.Observed(base.Interesting) {
				t.Errorf("%s on %s: store-atomicity violation %q witnessed",
					base.Name, model, base.Interesting)
			}
		}
	}
}

// TestGetAndNames: registry sanity.
func TestGetAndNames(t *testing.T) {
	for _, tt := range Tests() {
		got, err := Get(tt.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != tt.Name {
			t.Errorf("Get(%q).Name = %q", tt.Name, got.Name)
		}
	}
	if _, err := Get("nonexistent"); err == nil {
		t.Error("Get of unknown test should fail")
	}
}

// TestSelect: the -test list parser keeps list order, skips blank elements
// and fails on an unknown name or a list that names nothing.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Tests()) {
		t.Fatalf("Select(\"\") = %d tests, %v; want the full suite", len(all), err)
	}
	got, err := Select(" n6,, mp ")
	if err != nil || len(got) != 2 || got[0].Name != "n6" || got[1].Name != "mp" {
		t.Fatalf("Select(\" n6,, mp \") = %v, %v", got, err)
	}
	for _, spec := range []string{"n6,nonexistent", " , "} {
		if _, err := Select(spec); err == nil {
			t.Errorf("Select(%q) accepted", spec)
		}
	}
}

// FuzzSelect drives the -test list parser with arbitrary values, seeded with
// the flag values CI passes: it must never panic, and a list it accepts, its
// names joined with commas, selects the same tests again.
func FuzzSelect(f *testing.F) {
	for _, s := range []string{"threads=4,ops=6,addrs=3,fences=1,rmws=2", "mp,n6,iriw", "370-SLFSoS-key", "all", "none"} {
		f.Add(s)
	}
	names := func(tests []Test) []string {
		out := make([]string, len(tests))
		for i, t := range tests {
			out[i] = t.Name
		}
		return out
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tests, err := Select(spec)
		if err != nil {
			return
		}
		again, err := Select(strings.Join(names(tests), ","))
		if err != nil || !slices.Equal(names(again), names(tests)) {
			t.Fatalf("Select(%q) = %v, whose rendering selects %v (err %v)", spec, names(tests), names(again), err)
		}
	})
}
