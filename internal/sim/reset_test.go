package sim_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sesa/internal/config"
	"sesa/internal/isa"
	"sesa/internal/litmus"
	"sesa/internal/obs"
	"sesa/internal/report"
	"sesa/internal/sim"
	"sesa/internal/trace"
)

// resetRun is one run of TestResetEqualsFresh: a configuration, an initial
// memory image, one program per core (fewer leave the rest idle), a cycle
// bound, and whether to render the run's Kanata trace.
type resetRun struct {
	name      string
	cfg       config.Config
	init      map[uint64]uint64
	progs     []isa.Program
	maxCycles uint64
	kanata    bool
}

// observation is everything a run can show: text renders the run's error,
// the statistics, the hierarchy's and network's counters and the interval
// metrics as JSON, every register of every core, the memory image at every address the programs
// touch, the histograms and, when asked for, the Kanata trace; events holds
// each core's recorded pipeline events, from which every trace format is
// rendered.
type observation struct {
	text   string
	events [][]obs.Event
}

func (o observation) equal(p observation) bool {
	return o.text == p.text && slices.EqualFunc(o.events, p.events, slices.Equal)
}

// run installs r's memory image and programs on m and runs it.
func run(t *testing.T, m *sim.Machine, r resetRun) error {
	t.Helper()
	for a, v := range r.init {
		m.InitMemory(a, v)
	}
	for i, p := range r.progs {
		if err := m.SetProgram(i, p); err != nil {
			t.Fatal(err)
		}
	}
	return m.Run(r.maxCycles)
}

// attach gives m a new tracer that records events, metrics and histograms.
func attach(m *sim.Machine, cores int) *obs.Tracer {
	tr := obs.New(cores, obs.Options{BufCap: obs.DefaultBufCap, MetricsInterval: 100, Hists: true})
	m.AttachTracer(tr)
	return tr
}

// recorded summarizes what a tracer holds.
func recorded(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < tr.Cores(); i++ {
		fmt.Fprintf(&b, "core %d: %d events\n", i, len(tr.Core(i).Events()))
	}
	fmt.Fprintf(&b, "%d metrics samples\n", len(tr.Metrics().Samples))
	if err := (report.HistReport{Runs: []report.HistRun{report.NewHistRun("", tr.Hists())}}).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// observe runs r on m with a tracer attached.
func observe(t *testing.T, m *sim.Machine, r resetRun) observation {
	t.Helper()
	tr := attach(m, r.cfg.Cores)
	var b strings.Builder
	fmt.Fprintf(&b, "error: %v\n", run(t, m, r))
	for _, v := range []any{m.Stats, m.Hierarchy().Stats, m.Network().Traffic, tr.Metrics().Samples} {
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n", j)
	}
	for i := 0; i < r.cfg.Cores; i++ {
		fmt.Fprintf(&b, "core %d registers:", i)
		for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
			fmt.Fprintf(&b, " %d", m.Core(i).RegValue(reg))
		}
		b.WriteString("\n")
	}
	var addrs []uint64
	for a := range r.init {
		addrs = append(addrs, a)
	}
	for _, p := range r.progs {
		for _, in := range p {
			if in.Op.IsMem() {
				addrs = append(addrs, in.Addr&^7)
			}
		}
	}
	slices.Sort(addrs)
	b.WriteString("memory:")
	for _, a := range slices.Compact(addrs) {
		fmt.Fprintf(&b, " %#x=%d", a, m.ReadMemory(a))
	}
	b.WriteString("\n")
	rep := report.HistReport{Title: r.name, Runs: []report.HistRun{report.NewHistRun(r.name, tr.Hists())}}
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if r.kanata {
		if err := obs.WriteKanata(&b, []obs.Run{{Name: r.name, Tracer: tr}}); err != nil {
			t.Fatal(err)
		}
	}
	o := observation{events: make([][]obs.Event, r.cfg.Cores)}
	for i := range o.events {
		o.events[i] = tr.Core(i).Events()
	}
	o.text = b.String()
	return o
}

// firstDiff describes where two observations first differ.
func firstDiff(a, b observation) string {
	al, bl := strings.Split(a.text, "\n"), strings.Split(b.text, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\nreset: %.300s\nnew:   %.300s", i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		return fmt.Sprintf("reset has %d lines, new %d", len(al), len(bl))
	}
	for c := range a.events {
		ae, be := a.events[c], b.events[c]
		for i := range min(len(ae), len(be)) {
			if ae[i] != be[i] {
				return fmt.Sprintf("core %d event %d:\nreset: %+v\nnew:   %+v", c, i, ae[i], be[i])
			}
		}
		if len(ae) != len(be) {
			return fmt.Sprintf("core %d: reset recorded %d events, new %d", c, len(ae), len(be))
		}
	}
	return "nothing"
}

// litmusRuns returns every litmus test and its SB-pressure variant under
// every model, in one configuration, at three jitter seeds; each thread
// starts after a seed-dependent stagger, as in the witness search.
func litmusRuns(shape func(cores int, m config.Model) config.Config) []resetRun {
	var runs []resetRun
	for _, test := range litmus.Tests() {
		for _, v := range []litmus.Test{test, litmus.WithSBPressure(test, 3)} {
			for _, model := range config.AllModels() {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := shape(len(v.Prog.Threads), model)
					cfg.Jitter = 9
					cfg.JitterSeed = seed * 0x9E3779B97F4A7C15
					progs := make([]isa.Program, len(v.Prog.Threads))
					for ti, p := range v.Prog.Threads {
						pre := make(isa.Program, int(seed)+ti)
						for k := range pre {
							pre[k] = isa.ALUImm(31, 31, 1, 3)
						}
						progs[ti] = append(pre, p...)
					}
					runs = append(runs, resetRun{
						name: fmt.Sprintf("%s/%s#%d", v.Name, model, seed), cfg: cfg,
						init: v.Prog.Init, progs: progs, maxCycles: 1_000_000, kanata: true})
				}
			}
		}
	}
	return runs
}

// Programs whose result depends on state a reset must clear, and that no
// generated trace or litmus test leaves behind.
var (
	// predictors runs twice in a row. Its branches index the tagged tables
	// by the global history, so a history left over from the previous run
	// changes their predictions; and its load performs before the older
	// store's address resolves, which trains the store sets, so a kept SSIT
	// makes the second run's load wait instead.
	predictors = isa.Program{
		{Op: isa.OpBranch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PC: 0x200},
		isa.Branch(0x200, true), isa.Branch(0x200, true), isa.Branch(0x200, true),
		isa.ALUImm(30, 30, 1, 250),
		isa.ALUImm(30, 30, 1, 250),
		{Op: isa.OpStore, Dst: isa.RegNone, Src1: isa.RegNone, Src2: 30, Addr: 0x3000, Imm: 5, PC: 0x100},
		{Op: isa.OpLoad, Dst: 2, Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x3000, PC: 0x104},
	}
	// strideA leaves an RMW in the core's RMW list and the stride
	// prefetcher one load short of a prefetch. strideB continues the
	// stride, and its next load overlaps the zero-address ALU op in the
	// slot the RMW had: a machine that kept either acts on it.
	strideA = isa.Program{
		isa.RMW(9, 0x3100, 1),
		isa.Load(1, 0x200000), isa.Load(2, 0x200040), isa.Load(3, 0x200080),
	}
	strideB = isa.Program{
		isa.ALUImm(5, 5, 1, 100),
		isa.Load(6, 0x2000c0), isa.Load(7, 0),
	}
)

// traceRuns returns generated traces with branches and evictions, on two
// cores under every model in one configuration, then the predictors and
// stride programs on one core. Each trace runs twice in a row, so a
// predictor, cache or directory entry left over from a run would meet the
// very program that trained it. A run cut short by its cycle bound, with
// instructions and events in flight, comes first. Their pipeline events are
// compared directly rather than through the Kanata rendering, which is a
// function of them and would dominate the test's time.
func traceRuns(shape func(cores int, m config.Model) config.Config) []resetRun {
	var runs []resetRun
	for _, model := range config.AllModels() {
		cfg := shape(2, model)
		add := func(name string, maxCycles uint64, progs ...isa.Program) {
			runs = append(runs, resetRun{name: name + "/" + model.String(), cfg: cfg,
				progs: progs, maxCycles: maxCycles})
		}
		for i, name := range []string{"barnes", "505.mcf", "radix", "x264"} {
			p, _ := trace.Lookup(name)
			w := trace.Build(p, 2, 3000, 42)
			if i == 0 {
				add(name+"/cut", 2000, w.Programs...)
			}
			add(name, 10_000_000, w.Programs...)
			add(name, 10_000_000, w.Programs...)
		}
		add("predictors", 1_000_000, predictors)
		add("predictors", 1_000_000, predictors)
		add("stride-a", 1_000_000, strideA)
		add("stride-b", 1_000_000, strideB)
	}
	return runs
}

// TestResetEqualsFresh reuses one machine per configuration across a long
// sequence of different runs — litmus tests under every model, seed and
// pressure, generated traces, a run cut short, the predictor and stride
// programs, and a run that leaves cores without a program — and requires
// each run to show exactly what it shows on a new machine: statistics,
// registers, memory, pipeline events, Kanata trace and histograms. A run
// after a reset must also leave the previous run's tracer and histograms
// alone.
func TestResetEqualsFresh(t *testing.T) {
	shapes := []struct {
		name  string
		shape func(cores int, m config.Model) config.Config
	}{
		{"table3", config.Skylake},
		{"small", config.Small},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			var runs []resetRun
			traces, lits := traceRuns(sh.shape), litmusRuns(sh.shape)
			// Interleave: a model's traces, then a share of the litmus runs.
			per := (len(lits) + 6) / 7
			for k := 0; k < 7; k++ {
				runs = append(runs, traces[k*len(traces)/7:(k+1)*len(traces)/7]...)
				runs = append(runs, lits[min(k*per, len(lits)):min((k+1)*per, len(lits))]...)
			}
			// iriw ran last on the four-core machine; mp leaves two of its
			// cores without a program.
			mp := litmus.MP()
			runs = append(runs, resetRun{name: "mp/idle-cores", cfg: sh.shape(4, config.X86),
				init: mp.Prog.Init, progs: mp.Prog.Threads, maxCycles: 1_000_000})

			reused := map[int]*sim.Machine{}
			for _, r := range runs {
				m := reused[r.cfg.Cores]
				if m == nil {
					var err error
					if m, err = sim.New(r.cfg, r.name); err != nil {
						t.Fatal(err)
					}
					reused[r.cfg.Cores] = m
				} else if err := m.Reset(r.cfg, r.name); err != nil {
					t.Fatal(err)
				}
				fresh, err := sim.New(r.cfg, r.name)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := observe(t, m, r), observe(t, fresh, r); !got.equal(want) {
					t.Fatalf("%s: a reset machine differs from a new one at %s", r.name, firstDiff(got, want))
				}
			}

			// A reset detaches the tracer: a run after one that recorded
			// leaves its records alone.
			m, r := reused[4], runs[len(runs)-1]
			if err := m.Reset(r.cfg, r.name); err != nil {
				t.Fatal(err)
			}
			tr := attach(m, r.cfg.Cores)
			if err := run(t, m, r); err != nil {
				t.Fatal(err)
			}
			before := recorded(t, tr)
			if err := m.Reset(r.cfg, r.name); err != nil {
				t.Fatal(err)
			}
			if err := run(t, m, r); err != nil {
				t.Fatal(err)
			}
			if after := recorded(t, tr); after != before {
				t.Errorf("a run after a reset recorded into the previous run's tracer or histograms:\nbefore:\n%s\nafter:\n%s", before, after)
			}
		})
	}
}

// TestResetRejectsShapeChange: a reset may change the model, jitter, step
// mode and NoC, but not the core count, core or memory configuration that
// size the machine's storage, nor an invalid configuration.
func TestResetRejectsShapeChange(t *testing.T) {
	base := config.Skylake(2, config.X86)
	m, err := sim.New(base, "shape")
	if err != nil {
		t.Fatal(err)
	}
	ok := base
	ok.Model, ok.Jitter, ok.JitterSeed, ok.StepMode = config.SLFSoSKey370, 9, 7, config.StepNaive
	ok.NoC.SwitchLatency++
	if !m.Fits(ok) {
		t.Error("Fits rejects a same-shape configuration")
	}
	if err := m.Reset(ok, "ok"); err != nil {
		t.Fatalf("reset to a same-shape configuration: %v", err)
	}
	for name, bad := range map[string]func(*config.Config){
		"cores":   func(c *config.Config) { c.Cores = 4 },
		"core":    func(c *config.Config) { c.Core.ROBEntries = 32 },
		"memory":  func(c *config.Config) { c.Mem.L1D.Ways = 4 },
		"invalid": func(c *config.Config) { c.Jitter = -1 },
	} {
		cfg := base
		bad(&cfg)
		if err := m.Reset(cfg, name); err == nil {
			t.Errorf("reset accepted a changed %s", name)
		}
		if m.Fits(cfg) == (name != "invalid") {
			t.Errorf("Fits = %v for a changed %s", m.Fits(cfg), name)
		}
	}
	// A rejected reset leaves the machine as it was.
	if got := m.Config(); got != ok {
		t.Errorf("rejected resets changed the configuration to %+v", got)
	}
}
