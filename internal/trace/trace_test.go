package trace

import (
	"math"
	"testing"
	"testing/quick"

	"sesa/internal/isa"
)

func TestProfilesCoverTableIV(t *testing.T) {
	if n := len(ParallelProfiles()); n != 25 {
		t.Errorf("parallel profiles = %d, want 25 (SPLASH-3 + PARSEC)", n)
	}
	if n := len(SequentialProfiles()); n != 36 {
		t.Errorf("sequential profiles = %d, want 36 (SPECrate 2017)", n)
	}
	seen := map[string]bool{}
	for _, p := range append(ParallelProfiles(), SequentialProfiles()...) {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.LoadPct <= 0 || p.LoadPct >= 100 {
			t.Errorf("%s: LoadPct %v out of range", p.Name, p.LoadPct)
		}
		if p.ForwardPct < 0 || p.ForwardPct > p.LoadPct {
			t.Errorf("%s: ForwardPct %v exceeds LoadPct %v", p.Name, p.ForwardPct, p.LoadPct)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("barnes"); !ok {
		t.Error("barnes should exist")
	}
	if _, ok := Lookup("505.mcf"); !ok {
		t.Error("505.mcf should exist")
	}
	if _, ok := Lookup("no-such-bench"); ok {
		t.Error("unknown benchmark should not resolve")
	}
}

func TestGeneratedProgramsValidate(t *testing.T) {
	for _, p := range append(ParallelProfiles(), SequentialProfiles()...) {
		prog := Generate(p, 0, 2000, 7)
		if len(prog) != 2000 {
			t.Errorf("%s: generated %d instructions, want 2000", p.Name, len(prog))
		}
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", p.Name, err)
		}
	}
}

func TestGeneratorHitsTableIVTargets(t *testing.T) {
	for _, name := range []string{"barnes", "fft", "500.perlbench_2", "527.cam4", "radix"} {
		p, _ := Lookup(name)
		prog := Generate(p, 0, 50000, 3)
		loads, stores, _ := prog.Counts()
		loadPct := 100 * float64(loads) / float64(len(prog))
		// Loads within 2.5 percentage points of the Table IV target.
		if diff := loadPct - p.LoadPct; diff > 2.5 || diff < -2.5 {
			t.Errorf("%s: generated loads%% = %.2f, target %.2f", name, loadPct, p.LoadPct)
		}
		_ = stores
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := Lookup("barnes")
	a := Generate(p, 1, 5000, 42)
	b := Generate(p, 1, 5000, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
	}
}

func TestGeneratorVariesByCoreAndSeed(t *testing.T) {
	p, _ := Lookup("barnes")
	a := Generate(p, 0, 2000, 42)
	b := Generate(p, 1, 2000, 42)
	c := Generate(p, 0, 2000, 43)
	if same(a, b) {
		t.Error("different cores should get different streams")
	}
	if same(a, c) {
		t.Error("different seeds should get different streams")
	}
}

func same(a, b isa.Program) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoresDoNotSharePrivateRegions(t *testing.T) {
	p, _ := Lookup("barnes")
	a := Generate(p, 0, 5000, 42)
	b := Generate(p, 1, 5000, 42)
	aPriv := map[uint64]bool{}
	for _, in := range a {
		if in.Op.IsMem() && in.Addr < sharedBase {
			aPriv[in.Addr&^63] = true
		}
	}
	for _, in := range b {
		if in.Op.IsMem() && in.Addr < sharedBase && aPriv[in.Addr&^63] {
			t.Fatalf("cores share private line %#x", in.Addr&^63)
		}
	}
}

func TestBuildWorkload(t *testing.T) {
	p, _ := Lookup("barnes")
	w := Build(p, 8, 1000, 1)
	if len(w.Programs) != 8 {
		t.Errorf("parallel workload should have 8 programs, got %d", len(w.Programs))
	}
	ps, _ := Lookup("505.mcf")
	ws := Build(ps, 8, 1000, 1)
	if len(ws.Programs) != 1 {
		t.Errorf("sequential workload should have 1 program, got %d", len(ws.Programs))
	}
}

// TestGenerateAnyProfileValid: generation never produces invalid programs,
// for arbitrary (sane) profile knobs.
func TestGenerateAnyProfileValid(t *testing.T) {
	f := func(loadPct, fwdFrac, storePct, branchPct, stream, shared, sync, chase, conflict uint8, seed uint64) bool {
		p := Profile{
			Name:        "prop",
			LoadPct:     5 + float64(loadPct%30),
			StorePct:    1 + float64(storePct%20),
			BranchPct:   1 + float64(branchPct%20),
			StreamPct:   float64(stream%50) / 100,
			SharedPct:   float64(shared%5) / 100,
			SyncPct:     float64(sync%3) / 10,
			ChasePct:    float64(chase%40) / 100,
			ConflictPct: float64(conflict%10) / 100,
		}
		p.ForwardPct = p.LoadPct * float64(fwdFrac%80) / 100
		prog := Generate(p, int(seed%8), 800, seed)
		return len(prog) == 800 && prog.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSuiteString(t *testing.T) {
	if Parallel.String() != "parallel" || Sequential.String() != "sequential" {
		t.Error("suite names")
	}
}

func TestCheckInstPerCore(t *testing.T) {
	for _, n := range []int{1, 2000, MaxInstPerCore} {
		if err := CheckInstPerCore(n); err != nil {
			t.Errorf("CheckInstPerCore(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -1, MaxInstPerCore + 1, math.MaxInt} {
		if err := CheckInstPerCore(n); err == nil {
			t.Errorf("CheckInstPerCore(%d) accepted", n)
		}
	}
}
