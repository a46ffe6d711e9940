package main

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/core"
	"sesa/internal/isa"
	"sesa/internal/litmus"
	"sesa/internal/mem"
	"sesa/internal/noc"
	"sesa/internal/sched"
	"sesa/internal/sim"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// microBenchTime is each microbenchmark's measuring time; with testing's
// ramp-up the twelve take a few seconds in all.
const microBenchTime = "100ms"

// microBench is one isolated per-layer microbenchmark. It reports its time
// per operation under def, converted to def's unit by dividing nanoseconds
// by perUnit, and its allocations per operation under allocsName(def.name).
// hot marks the benchmarks that run once per simulated cycle or memory
// operation: the simulator's hot path is pinned at zero allocations, so an
// allocation there is worth a warning.
type microBench struct {
	def     metricDef
	perUnit float64
	hot     bool
	fn      func(*testing.B)
}

const ns, us = 1, 1e3

var microBenches = []microBench{
	{metricDef{"mem.load_l1hit_ns", "ns", "lower"}, ns, true, benchLoadL1Hit},
	{metricDef{"mem.load_miss_ns", "ns", "lower"}, ns, true, benchLoadMiss},
	{metricDef{"mem.store_inval_ns", "ns", "lower"}, ns, true, benchStoreInval},
	{metricDef{"mem.new_hierarchy_us", "us", "lower"}, us, false, benchNewHierarchy},
	{metricDef{"sim.new_us", "us", "lower"}, us, false, benchSimNew},
	{metricDef{"sim.step_naive_ns", "ns", "lower"}, ns, true, benchStepNaive},
	{metricDef{"core.tick_ns_warm", "ns", "lower"}, ns, true, benchCoreTick},
	{metricDef{"sched.schedule_drain_ns", "ns", "lower"}, ns, true, benchScheduleDrain},
	{metricDef{"noc.delay_ns", "ns", "lower"}, ns, true, benchNoCDelay},
	{metricDef{"trace.generate_ns_per_inst", "ns", "lower"}, generateInsts, false, benchGenerate},
	{metricDef{"checker.iriw_us", "us", "lower"}, us, false, benchCheckerIRIW},
	{metricDef{"axiomatic.iriw_us", "us", "lower"}, us, false, benchAxiomaticIRIW},
}

// microMetrics expands microBenches into time and allocation metrics.
func microMetrics() []metricDef {
	var out []metricDef
	for _, m := range microBenches {
		out = append(out, m.def, metricDef{allocsName(m.def.name), "allocs/op", "lower"})
	}
	return out
}

// sink keeps benchmarked results alive so the compiler cannot drop the
// calls that produce them.
var sink uint64

// runMicro runs every microbenchmark with testing.Benchmark and returns
// time and allocations per operation, plus a warning for each hot-path
// benchmark that allocates.
func runMicro() (metricSet, []string, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		return nil, nil, err
	}
	got := metricSet{}
	var warnings []string
	for _, mb := range microBenches {
		r := testing.Benchmark(mb.fn)
		if r.N == 0 {
			return nil, nil, fmt.Errorf("microbenchmark %s failed", mb.def.name)
		}
		got[mb.def.name] = float64(r.T.Nanoseconds()) / float64(r.N) / mb.perUnit
		got[allocsName(mb.def.name)] = float64(r.MemAllocs) / float64(r.N)
		// Whole allocations per operation, as go test -benchmem and the CI
		// perf-guard count them: amortized growth of a warm buffer is not
		// a hot-path allocation.
		if mb.hot && r.AllocsPerOp() > 0 {
			warnings = append(warnings, fmt.Sprintf("hot-path microbenchmark %s allocates %d/op", mb.def.name, r.AllocsPerOp()))
		}
	}
	return got, warnings, nil
}

// nopClient ignores every hierarchy notification.
type nopClient struct{}

func (nopClient) OnLineRemoved(uint64, uint64, bool) {}
func (nopClient) OnLoadDone(uint64, uint64, uint64)  {}
func (nopClient) OnStoreWrote(uint64, uint64)        {}
func (nopClient) OnRMWDone(uint64, uint64, uint64)   {}

// nopHandler drops delivered events.
type nopHandler struct{}

func (nopHandler) HandleBatch([]sched.Event) {}

func newHierarchy(cores int) (*mem.Hierarchy, *sched.EventQueue) {
	cfg := config.Skylake(cores, config.X86)
	evq := sched.NewEventQueue()
	h := mem.NewHierarchy(cores, cfg.Mem, noc.New(cfg.NoC, 0, 0), evq)
	for i := 0; i < cores; i++ {
		h.SetClient(i, nopClient{})
	}
	return h, evq
}

// drainGap separates consecutive memory operations by far more cycles than
// any of them takes, so each operation is delivered before the next issues.
const drainGap = 100_000

// benchLoadL1Hit: a load that hits the L1, plus the delivery of its
// completion event.
func benchLoadL1Hit(b *testing.B) {
	h, evq := newHierarchy(1)
	h.Reserve(8, 8)
	var now uint64
	h.Load(0, 0x1000, 8, now, 1)
	evq.RunUntil(now+drainGap, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += drainGap
		h.Load(0, 0x1000, 8, now, 1)
		evq.RunUntil(now+drainGap, h)
	}
}

// benchLoadMiss: a load that misses both private levels and is served by
// the shared L3: the loads walk a 1 MiB region (8x the L2, an eighth of the
// L3) in a shuffled order, so the stride prefetcher stays idle.
func benchLoadMiss(b *testing.B) {
	const lines = 1 << 14
	h, evq := newHierarchy(1)
	h.Reserve(lines, lines)
	order := rand.New(rand.NewSource(1)).Perm(lines)
	addr := func(i int) uint64 { return 0x100000 + uint64(order[i%lines])*64 }
	var now uint64
	for i := 0; i < lines; i++ {
		now += drainGap
		h.Load(0, addr(i), 8, now, 1)
		evq.RunUntil(now+drainGap, h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += drainGap
		h.Load(0, addr(i), 8, now, 1)
		evq.RunUntil(now+drainGap, h)
	}
}

// benchStoreInval: two cores store to one line in turn, so every store
// takes ownership from the other core and invalidates its copy.
func benchStoreInval(b *testing.B) {
	h, evq := newHierarchy(2)
	h.Reserve(8, 8)
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += drainGap
		h.Store(i&1, 0x2000, 8, uint64(i), now, 0, 1)
		evq.RunUntil(now+drainGap, h)
	}
}

// benchNewHierarchy: building the Table III memory system for 8 cores.
func benchNewHierarchy(b *testing.B) {
	cfg := config.Default(config.X86)
	for i := 0; i < b.N; i++ {
		h := mem.NewHierarchy(cfg.Cores, cfg.Mem, noc.New(cfg.NoC, 0, 0), sched.NewEventQueue())
		sink += h.Stats.L1Hits
	}
}

// benchSimNew: building a whole 8-core machine.
func benchSimNew(b *testing.B) {
	cfg := config.Default(config.SLFSoSKey370)
	for i := 0; i < b.N; i++ {
		m, err := sim.New(cfg, "bench")
		if err != nil {
			b.Fatal(err)
		}
		sink += m.Cycle()
	}
}

// barnesWorkload is benchStepNaive's 8-core trace, built on first use.
var barnesWorkload = sync.OnceValue(func() trace.Workload {
	p, _ := trace.Lookup("barnes")
	return trace.Build(p, config.Default(config.X86).Cores, 50_000, 42)
})

// benchStepNaive: one naive step of a warm 8-core machine on barnes, as the
// repository's perf-guard measures it.
func benchStepNaive(b *testing.B) {
	cfg := config.Default(config.SLFSoSKey370)
	w := barnesWorkload()
	warm := func(b *testing.B) *sim.Machine {
		m, err := sim.New(cfg, w.Name)
		if err != nil {
			b.Fatal(err)
		}
		for c, prog := range w.Programs {
			if err := m.SetProgram(c, prog); err != nil {
				b.Fatal(err)
			}
		}
		for c := 0; c < cfg.Cores; c++ {
			m.Core(c).SetWakeHints(false)
		}
		for i := 0; i < 20_000 && !m.Done(); i++ {
			m.Step()
		}
		return m
	}
	m := warm(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m = warm(b)
			b.StartTimer()
		}
		m.Step()
	}
}

// gccProgram is benchCoreTick's single-core trace, built on first use.
var gccProgram = sync.OnceValue(func() isa.Program {
	p, _ := trace.Lookup("502.gcc_1")
	return trace.Generate(p, 0, 100_000, 42)
})

// benchCoreTick: one naive cycle of a warm single-core machine on
// 502.gcc_1 — event delivery plus core.Tick, built from the public parts.
func benchCoreTick(b *testing.B) {
	cfg := config.Skylake(1, config.SLFSoSKey370)
	prog := gccProgram()
	var clock *sched.Clock
	var hier *mem.Hierarchy
	var c *core.Core
	step := func() {
		now := clock.Now()
		clock.Deliver(hier)
		_, wake := c.Tick(now)
		clock.SetWake(0, wake)
		clock.Tick()
	}
	warm := func() {
		clock = sched.NewClock(1)
		hier = mem.NewHierarchy(1, cfg.Mem, noc.New(cfg.NoC, 0, 0), &clock.EventQueue)
		st := stats.New(cfg.Model.String(), "502.gcc_1", 1)
		c = core.New(0, cfg, hier, &st.Cores[0])
		c.SetWakeHints(false)
		c.SetProgram(prog)
		hier.Reserve(len(prog), len(prog))
		for i := 0; i < 5_000 && !c.Done(); i++ {
			step()
		}
	}
	warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Done() {
			b.StopTimer()
			warm()
			b.StartTimer()
		}
		step()
	}
}

// benchScheduleDrain: scheduling one event and delivering one, with 64
// events pending in the heap.
func benchScheduleDrain(b *testing.B) {
	q := sched.NewEventQueue()
	const pending = 64
	for i := uint64(0); i < pending; i++ {
		q.Schedule(sched.Event{Cycle: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		q.Schedule(sched.Event{Cycle: c + pending})
		q.RunUntil(c, nopHandler{})
	}
}

// benchNoCDelay: one message's latency and traffic accounting, alternating
// control and data messages, with the litmus runner's jitter on.
func benchNoCDelay(b *testing.B) {
	cfg := config.Default(config.X86)
	net := noc.New(cfg.NoC, 9, 1)
	for i := 0; i < b.N; i++ {
		sink += uint64(net.Delay(noc.MsgKind(i & 1)))
	}
}

// generateInsts is the trace length of one benchGenerate operation.
const generateInsts = 10_000

// benchGenerate: generating one core's barnes trace; reported per
// instruction.
func benchGenerate(b *testing.B) {
	p, _ := trace.Lookup("barnes")
	for i := 0; i < b.N; i++ {
		sink += uint64(len(trace.Generate(p, 0, generateInsts, uint64(i))))
	}
}

// benchCheckerIRIW: exhaustive operational enumeration of iriw (4 threads,
// the suite's largest state space) under 370-TSO.
func benchCheckerIRIW(b *testing.B) {
	prog := litmus.IRIW().Prog
	for i := 0; i < b.N; i++ {
		sink += uint64(len(checker.Enumerate(prog, checker.TSO370)))
	}
}

// benchAxiomaticIRIW: axiomatic candidate-execution enumeration of iriw
// under 370-TSO.
func benchAxiomaticIRIW(b *testing.B) {
	prog := litmus.IRIW().Prog
	for i := 0; i < b.N; i++ {
		set, err := axiomatic.Enumerate(prog, axiomatic.TSO370)
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(len(set))
	}
}
