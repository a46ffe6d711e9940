package config

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestSkylakeMatchesTableIII pins the default configuration to the paper's
// Table III.
func TestSkylakeMatchesTableIII(t *testing.T) {
	c := Default(X86)
	if c.Cores != 8 {
		t.Errorf("cores = %d, want 8", c.Cores)
	}
	if c.Core.Width != 5 {
		t.Errorf("width = %d, want 5", c.Core.Width)
	}
	if c.Core.ROBEntries != 224 || c.Core.LQEntries != 72 || c.Core.SQEntries != 56 {
		t.Errorf("ROB/LQ/SQ = %d/%d/%d, want 224/72/56",
			c.Core.ROBEntries, c.Core.LQEntries, c.Core.SQEntries)
	}
	if c.Mem.L1D.SizeBytes != 32<<10 || c.Mem.L1D.Ways != 8 || c.Mem.L1D.HitCycles != 4 {
		t.Errorf("L1D = %+v", c.Mem.L1D)
	}
	if c.Mem.L2.SizeBytes != 128<<10 || c.Mem.L2.HitCycles != 12 {
		t.Errorf("L2 = %+v", c.Mem.L2)
	}
	if c.Mem.L3.SizeBytes != 1<<20 || c.Mem.L3Banks != 8 || c.Mem.L3.HitCycles != 35 {
		t.Errorf("L3 = %+v banks=%d", c.Mem.L3, c.Mem.L3Banks)
	}
	if c.Mem.DirectoryWays != 8 || c.Mem.DirectoryCoverage != 2.0 {
		t.Errorf("directory = %d ways %.1f coverage", c.Mem.DirectoryWays, c.Mem.DirectoryCoverage)
	}
	if c.Mem.MemCycles != 160 {
		t.Errorf("memory latency = %d, want 160", c.Mem.MemCycles)
	}
	if c.NoC.SwitchLatency != 6 || c.NoC.ControlFlits != 1 || c.NoC.DataFlits != 5 {
		t.Errorf("NoC = %+v", c.NoC)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Table III config invalid: %v", err)
	}
}

// TestGateStorageBits pins Section IV-D: 640 bits total for the Table III
// machine (8 bits per LQ entry, 8 for the gate, one sorting bit per SB
// entry).
func TestGateStorageBits(t *testing.T) {
	c := Default(SLFSoSKey370)
	if got := c.GateStorageBits(); got != 640 {
		t.Errorf("gate storage = %d bits, want 640", got)
	}
}

func TestModelNamesAndPredicates(t *testing.T) {
	want := map[Model]string{
		X86:          "x86",
		NoSpec370:    "370-NoSpec",
		SLFSpec370:   "370-SLFSpec",
		SLFSoS370:    "370-SLFSoS",
		SLFSoSKey370: "370-SLFSoS-key",
		Louvre370:    "370-Louvre",
		RCP370:       "370-RCP",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), name)
		}
	}
}

// TestMachineProfiles pins each registry row's definition: its enforcement
// kind and three switches are the machine, so a silent change here is a
// different machine wearing the same name. Every row must be listed, and
// StoreAtomic must be false exactly for x86.
func TestMachineProfiles(t *testing.T) {
	cases := []struct {
		model                        Model
		enforce                      Enforce
		keyed, pastFences, invisible bool
	}{
		{X86, EnforceNone, false, false, false},
		{NoSpec370, EnforceBlanket, false, false, false},
		{SLFSpec370, EnforceSLFSpec, false, false, false},
		{SLFSoS370, EnforceGate, false, false, false},
		{SLFSoSKey370, EnforceGate, true, false, false},
		{Louvre370, EnforceGate, true, true, false},
		{RCP370, EnforceGate, true, false, true},
	}
	if len(cases) != len(registry) {
		t.Fatalf("%d profiles pinned, registry has %d rows", len(cases), len(registry))
	}
	for _, tc := range cases {
		info, ok := tc.model.Info()
		if !ok {
			t.Fatalf("%v has no registry row", tc.model)
		}
		if info.Enforce != tc.enforce || info.KeyedGate != tc.keyed ||
			info.PastFences != tc.pastFences || info.Invisible != tc.invisible {
			t.Errorf("%s: Enforce=%d KeyedGate=%v PastFences=%v Invisible=%v, want %d %v %v %v",
				tc.model, info.Enforce, info.KeyedGate, info.PastFences, info.Invisible,
				tc.enforce, tc.keyed, tc.pastFences, tc.invisible)
		}
		if tc.model.StoreAtomic() != (tc.model != X86) {
			t.Errorf("%s: StoreAtomic = %v", tc.model, tc.model.StoreAtomic())
		}
	}
}

// TestRegistryDrivenRoster pins the roster APIs to the registry itself, not
// to a hard-coded size: adding a machine must grow every roster-derived
// surface in lockstep (the old `len(AllModels()) != 5` assertion silently
// under-covered model-loop tests when the roster grew).
func TestRegistryDrivenRoster(t *testing.T) {
	all, names := AllModels(), ModelNames()
	if len(all) != len(registry) || len(names) != len(registry) {
		t.Fatalf("AllModels/ModelNames = %d/%d entries, registry has %d",
			len(all), len(names), len(registry))
	}
	for i, m := range all {
		if int(m) != i {
			t.Errorf("AllModels()[%d] = %v, want registry order", i, m)
		}
		info, ok := m.Info()
		if !ok {
			t.Fatalf("%v has no registry entry", m)
		}
		if info.Name != names[i] || m.String() != names[i] {
			t.Errorf("%v: name %q / String %q / ModelNames %q disagree", m, info.Name, m, names[i])
		}
		if info.Doc == "" {
			t.Errorf("%v: registry entry has no doc line", m)
		}
		got, err := ParseModel(names[i])
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", names[i], got, err, m)
		}
	}
	paper := PaperModels()
	if len(paper) != 5 {
		t.Fatalf("PaperModels() = %d entries, the paper evaluates 5", len(paper))
	}
	for i, m := range []Model{X86, NoSpec370, SLFSpec370, SLFSoS370, SLFSoSKey370} {
		if paper[i] != m {
			t.Errorf("PaperModels()[%d] = %v, want %v", i, paper[i], m)
		}
	}
}

func TestParseModels(t *testing.T) {
	if ms, err := ParseModels("all"); err != nil || len(ms) != len(AllModels()) {
		t.Errorf(`ParseModels("all") = %v, %v`, ms, err)
	}
	for _, spec := range []string{"none", ""} {
		if ms, err := ParseModels(spec); err != nil || ms != nil {
			t.Errorf("ParseModels(%q) = %v, %v; want nil, nil", spec, ms, err)
		}
	}
	ms, err := ParseModels(" x86 , 370-RCP ")
	if err != nil || len(ms) != 2 || ms[0] != X86 || ms[1] != RCP370 {
		t.Errorf("comma list = %v, %v", ms, err)
	}
	if _, err := ParseModels("x86,bogus"); err == nil || !strings.Contains(err.Error(), "370-Louvre") {
		t.Errorf("unknown name should list valid models, got %v", err)
	}
	if _, err := ParseModels(" , "); err == nil {
		t.Error("blank list should be rejected")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"bad model", func(c *Config) { c.Model = Model(99) }},
		{"zero width", func(c *Config) { c.Core.Width = 0 }},
		{"zero rob", func(c *Config) { c.Core.ROBEntries = 0 }},
		{"bad L1 geometry", func(c *Config) { c.Mem.L1D.SizeBytes = 1000 }},
		// Negative sizes and ways pass the divisibility and power-of-two
		// checks together, and then an array has a negative way count.
		{"negative L1D size and ways", func(c *Config) { c.Mem.L1D.SizeBytes, c.Mem.L1D.Ways = -32768, -8 }},
		{"negative L2 size and ways", func(c *Config) { c.Mem.L2.SizeBytes, c.Mem.L2.Ways = -131072, -8 }},
		{"negative L3 size and ways", func(c *Config) { c.Mem.L3.SizeBytes, c.Mem.L3.Ways = -(1 << 20), -8 }},
		{"negative L3 line size", func(c *Config) { c.Mem.L3.LineBytes = -64 }},
		{"line mismatch", func(c *Config) { c.Mem.L2.LineBytes = 32 }},
		{"bad banks", func(c *Config) { c.Mem.L3Banks = 3 }},
		{"negative jitter", func(c *Config) { c.Jitter = -1 }},
		{"zero directory ways", func(c *Config) { c.Mem.DirectoryWays = 0 }},
		{"negative directory ways", func(c *Config) { c.Mem.DirectoryWays = -8 }},
		{"zero directory coverage", func(c *Config) { c.Mem.DirectoryCoverage = 0 }},
		{"negative directory coverage", func(c *Config) { c.Mem.DirectoryCoverage = -1 }},
		{"NaN directory coverage", func(c *Config) { c.Mem.DirectoryCoverage = math.NaN() }},
		{"infinite directory coverage", func(c *Config) { c.Mem.DirectoryCoverage = math.Inf(1) }},
		// The directory's sharer set has 64 bits: a 65th core's copies
		// would never be invalidated.
		{"65 cores", func(c *Config) { c.Cores = MaxCores + 1 }},
		// Sub-word lines split a word across lines only the first one's
		// coherence covers; other sizes are not lines the arrays address.
		{"1-byte lines", withLines(1)},
		{"2-byte lines", withLines(2)},
		{"4-byte lines", withLines(4)},
		{"48-byte lines", withLines(48)},
		{"96-byte lines", withLines(96)},
		// Latencies and penalties feed uint64 cycle arithmetic, where a
		// negative one wraps: livelock, or a run that ends too early.
		{"negative L1 hit", func(c *Config) { c.Mem.L1D.HitCycles = -4 }},
		{"negative L2 hit", func(c *Config) { c.Mem.L2.HitCycles = -12 }},
		{"negative L3 hit", func(c *Config) { c.Mem.L3.HitCycles = -100 }},
		{"negative memory latency", func(c *Config) { c.Mem.MemCycles = -300 }},
		{"negative pipeline depth", func(c *Config) { c.Core.PipelineDepth = -1 }},
		{"negative branch penalty", func(c *Config) { c.Core.BranchMispredictPenalty = -20 }},
		{"negative squash penalty", func(c *Config) { c.Core.SquashRefillPenalty = -1 }},
	}
	for _, m := range mutations {
		c := Default(X86)
		m.f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}

	// The unknown-model error is registry-driven and lists the valid
	// names, like ParseModel's.
	c := Default(X86)
	c.Model = Model(99)
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "370-SLFSoS-key") || !strings.Contains(err.Error(), "370-RCP") {
		t.Errorf("unknown-model error should list valid names, got %v", err)
	}
}

// withLines sets every level's line size to n bytes, keeping its sets and
// ways, so only the line size can make the configuration invalid.
func withLines(n int) func(*Config) {
	return func(c *Config) {
		for _, cc := range []*Cache{&c.Mem.L1D, &c.Mem.L2, &c.Mem.L3} {
			cc.SizeBytes = cc.Sets() * cc.Ways * n
			cc.LineBytes = n
		}
	}
}

// TestValidateAcceptsGeometryBounds: the largest machine and the smallest
// and a larger power-of-two line stay valid.
func TestValidateAcceptsGeometryBounds(t *testing.T) {
	for _, m := range []struct {
		name string
		f    func(*Config)
	}{
		{"64 cores", func(c *Config) { c.Cores = MaxCores }},
		{"8-byte lines", withLines(MinLineBytes)},
		{"128-byte lines", withLines(128)},
	} {
		c := Default(X86)
		m.f(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", m.name, err)
		}
	}
}

func TestCacheSets(t *testing.T) {
	c := Cache{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if c.Sets() != 64 {
		t.Errorf("sets = %d, want 64", c.Sets())
	}
}

func TestNoCLatencies(t *testing.T) {
	n := Default(X86).NoC
	if n.ControlLatency() != 7 {
		t.Errorf("control latency = %d, want 7", n.ControlLatency())
	}
	if n.DataLatency() != 11 {
		t.Errorf("data latency = %d, want 11", n.DataLatency())
	}
}

func TestSmallConfigValid(t *testing.T) {
	for _, m := range AllModels() {
		if err := Small(2, m).Validate(); err != nil {
			t.Errorf("Small(2, %s) invalid: %v", m, err)
		}
	}
}

func TestUnknownModelString(t *testing.T) {
	if !strings.Contains(Model(42).String(), "42") {
		t.Error("unknown model should render its number")
	}
}

// FuzzParseModels drives the -model list parser with arbitrary values,
// seeded with the flag values CI passes: it must never panic, and a list it
// accepts, its names joined with commas, parses back to the same models.
func FuzzParseModels(f *testing.F) {
	for _, s := range []string{"threads=4,ops=6,addrs=3,fences=1,rmws=2", "mp,n6,iriw", "370-SLFSoS-key", "all", "none"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		models, err := ParseModels(spec)
		if err != nil {
			return
		}
		names := make([]string, len(models))
		for i, m := range models {
			names[i] = m.String()
		}
		again, err := ParseModels(strings.Join(names, ","))
		if err != nil || !slices.Equal(again, models) {
			t.Fatalf("ParseModels(%q) = %v, whose rendering parses to %v (err %v)", spec, models, again, err)
		}
	})
}
