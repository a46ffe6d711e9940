// Package sim ties the out-of-order cores, the memory hierarchy and the
// interconnect into the cycle-driven multicore machine the paper evaluates.
package sim

import (
	"context"
	"fmt"

	"sesa/internal/config"
	"sesa/internal/core"
	"sesa/internal/isa"
	"sesa/internal/mem"
	"sesa/internal/noc"
	"sesa/internal/obs"
	"sesa/internal/sched"
	"sesa/internal/stats"
)

// TimeoutError reports a machine that did not finish within its cycle
// bound — the liveness check of Section IV-C. Runners detect it with
// errors.As to classify timed-out jobs apart from other failures.
type TimeoutError struct {
	MaxCycles uint64
	Model     string
	Workload  string
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sim: machine did not finish within %d cycles (model %s, workload %s)",
		e.MaxCycles, e.Model, e.Workload)
}

// CanceledError reports a run cut short by context cancellation. Like a
// timeout it carries the machine identity and how far the run got, and the
// machine's partial statistics remain readable. It unwraps to both the
// context's error and its cancellation cause, so
// errors.Is(err, context.Canceled) matches even when the canceler attached a
// custom cause (e.g. "sweep deleted by client"), and the cause itself
// matches too.
type CanceledError struct {
	Cycles   uint64
	Model    string
	Workload string
	// Err is the context's error: context.Canceled or DeadlineExceeded.
	Err error
	// Cause is the context's cancellation cause (context.Cause); equal to
	// Err unless the canceler set one.
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled after %d cycles (model %s, workload %s): %v",
		e.Cycles, e.Model, e.Workload, e.Cause)
}

// Unwrap exposes the context error and the cancellation cause to errors.Is/As.
func (e *CanceledError) Unwrap() []error {
	if e.Cause != nil && e.Cause != e.Err {
		return []error{e.Err, e.Cause}
	}
	return []error{e.Err}
}

// Machine is one simulated multicore.
type Machine struct {
	cfg   config.Config
	clock *sched.Clock
	net   *noc.Network
	hier  *mem.Hierarchy
	cores []*core.Core

	// live lists, in index order, the cores Step still ticks: every core
	// after a reset, less each core once it has finished (DESIGN.md §5c).
	live []int

	// quiet records whether the last Step was fully quiescent — the
	// precondition for skipAhead.
	quiet bool

	// tracer is the observability sink; nil when tracing is disabled.
	tracer *obs.Tracer

	Stats *stats.Machine
}

// New builds a machine from the configuration; workload names the run in
// the statistics.
func New(cfg config.Config, workload string) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		clock: sched.NewClock(cfg.Cores),
		net:   noc.New(cfg.NoC, cfg.Jitter, cfg.JitterSeed),
	}
	m.hier = mem.NewHierarchy(cfg.Cores, cfg.Mem, m.net, &m.clock.EventQueue)
	m.cores = make([]*core.Core, cfg.Cores)
	for i := range m.cores {
		// The reset below gives every core its counters.
		m.cores[i] = core.New(i, cfg, m.hier, nil)
	}
	m.reset(cfg, workload)
	return m, nil
}

// Reset returns the machine to the state New(cfg, workload) builds, keeping
// its storage, so one machine can serve run after run. cfg may change the
// model, the jitter and its seed, the step mode and the NoC latencies; its
// Cores, Core and Mem size the storage and must equal the machine's. Reset
// detaches any tracer and allocates a new Stats, so a Stats pointer taken
// before stays the previous run's.
func (m *Machine) Reset(cfg config.Config, workload string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !m.Fits(cfg) {
		return fmt.Errorf("sim: Reset cannot change the cores, core or memory configuration the machine was built with")
	}
	m.reset(cfg, workload)
	return nil
}

// Fits reports whether Reset can take the machine to cfg: whether cfg has
// the cores, core and memory configuration the machine was built with.
func (m *Machine) Fits(cfg config.Config) bool {
	return cfg.Cores == m.cfg.Cores && cfg.Core == m.cfg.Core && cfg.Mem == m.cfg.Mem
}

// reset is the one initialization path New and Reset share: a fresh Machine
// that carries over only the layers, each of which then resets itself. The
// hierarchy drops its clients before the cores register again.
func (m *Machine) reset(cfg config.Config, workload string) {
	*m = Machine{
		cfg:   cfg,
		clock: m.clock,
		net:   m.net,
		hier:  m.hier,
		cores: m.cores,
		live:  m.live[:0],
		Stats: stats.New(cfg.Model.String(), workload, cfg.Cores),
	}
	for i := range m.cores {
		m.live = append(m.live, i)
	}
	m.clock.Reset()
	m.net.Reset(cfg.NoC, cfg.Jitter, cfg.JitterSeed)
	m.hier.Reset()
	for i, c := range m.cores {
		c.Reset(cfg.Model, &m.Stats.Cores[i])
	}
}

// AttachTracer wires the observability sink through the cores, the memory
// hierarchy and, for its histograms, the interconnect. Call before the
// first Step; nil detaches. Hook sites nil-check their sink, so a machine
// without a tracer pays one never-taken branch per hook.
func (m *Machine) AttachTracer(t *obs.Tracer) {
	m.tracer = t
	for i, c := range m.cores {
		ct := t.Core(i) // nil-safe: nil when t is nil or records nothing per core
		c.AttachTracer(ct)
		m.hier.AttachTracer(i, ct)
	}
	m.net.AttachHists(t.Hists().Net())
}

// Tracer returns the attached observability sink (nil when disabled).
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// sampleMetrics records one interval boundary from the live core state.
func (m *Machine) sampleMetrics(cycle uint64) {
	mt := m.tracer.Metrics()
	if mt == nil {
		return
	}
	snaps := make([]obs.CoreSnapshot, len(m.cores))
	for i, c := range m.cores {
		st := &m.Stats.Cores[i]
		rob, lq, sb := c.Occupancy()
		snaps[i] = obs.CoreSnapshot{
			Retired:          st.RetiredInsts,
			Squashes:         st.Squashes + st.DepSquashes,
			GateClosedCycles: st.GateClosedCycles,
			ROBOcc:           rob,
			LQOcc:            lq,
			SBOcc:            sb,
		}
	}
	m.tracer.Metrics().Sample(cycle, snaps)
}

// Config returns the machine configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// Core returns core i.
func (m *Machine) Core(i int) *core.Core { return m.cores[i] }

// Hierarchy exposes the memory system (memory image inspection, stats).
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// Network exposes interconnect traffic counters.
func (m *Machine) Network() *noc.Network { return m.net }

// SetProgram validates the trace for core i and installs it. Call it after
// New or Reset and before the first Step.
func (m *Machine) SetProgram(i int, p isa.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.cores[i].SetProgram(p)
	return nil
}

// InitMemory sets an initial 8-byte value in the memory image.
func (m *Machine) InitMemory(addr, val uint64) { m.hier.WriteImage(addr, 8, val) }

// ReadMemory reads the current memory-order value at addr.
func (m *Machine) ReadMemory(addr uint64) uint64 { return m.hier.ReadImage(addr, 8) }

// Cycle returns the current cycle.
func (m *Machine) Cycle() uint64 { return m.clock.Now() }

// Done reports whether every core has finished its trace. Only the cores
// Step still ticks can be unfinished, and a core can also finish outside a
// Step, when SetProgram installs an empty program.
func (m *Machine) Done() bool {
	for _, i := range m.live {
		if !m.cores[i].Done() {
			return false
		}
	}
	return true
}

// Step advances the machine one cycle: deliver the cycle's memory events,
// then tick every unfinished core in index order (deterministic),
// collecting each core's quiescence report into the clock's wake
// registrations. A finished core's Tick would do nothing and report no
// wake, so a core leaves the loop once it has finished, its wake set to
// Never. The tick a core finishes in reports progress, so that Step is not
// quiescent and the clock reads no wake before the next one.
func (m *Machine) Step() {
	now := m.clock.Now()
	m.clock.Deliver(m.hier)
	quiet := true
	live := m.live[:0]
	for _, i := range m.live {
		c := m.cores[i]
		progressed, wake := c.Tick(now)
		quiet = quiet && !progressed
		if c.Done() {
			wake = sched.Never
		} else {
			live = append(live, i)
		}
		m.clock.SetWake(i, wake)
	}
	m.live = live
	m.quiet = quiet
	m.clock.Tick()
	if iv := m.tracer.MetricsInterval(); iv > 0 && m.clock.Now()%iv == 0 {
		m.sampleMetrics(m.clock.Now())
	}
}

// skipAhead jumps the clock from the current cycle to the two-level clock's
// horizon — the next pending event or core wake, bounded by bound — after a
// fully quiescent Step. The skipped ticks are exact replays of the last one
// (see the quiescence argument in DESIGN.md), so their per-cycle counters
// are bulk-applied via SkipCycles, and every metrics-interval boundary the
// jump crosses is sampled exactly where naive stepping would have sampled
// it. No-op when the last Step made progress.
func (m *Machine) skipAhead(bound uint64) {
	cur := m.clock.Now()
	if !m.quiet || cur >= bound {
		return
	}
	target := m.clock.Horizon(bound)
	if target <= cur {
		return
	}
	if iv := m.tracer.MetricsInterval(); iv > 0 {
		for {
			b := (cur/iv + 1) * iv
			if b > target {
				break
			}
			m.bulkTick(b - cur)
			cur = b
			m.sampleMetrics(b)
		}
	}
	m.bulkTick(target - cur)
	m.clock.AdvanceTo(target)
}

// bulkTick applies n skipped quiescent cycles to every unfinished core; a
// finished core counts no cycles.
func (m *Machine) bulkTick(n uint64) {
	if n == 0 {
		return
	}
	for _, i := range m.live {
		m.cores[i].SkipCycles(n)
	}
}

// Run executes until every core finishes or maxCycles elapse; it returns an
// error on timeout, which doubles as the liveness check (the no-deadlock
// argument of Section IV-C).
func (m *Machine) Run(maxCycles uint64) error {
	return m.RunContext(context.Background(), maxCycles)
}

// cancelCheckMask throttles the cancellation poll to every 1024 steps: cheap
// enough to vanish in the per-step cost, frequent enough that a canceled
// machine stops within well under a millisecond of host time.
const cancelCheckMask = 1024 - 1

// RunContext is Run with cooperative cancellation. A context without a Done
// channel (context.Background) takes a checked-once fast path and behaves
// exactly like Run; otherwise the context is polled every 1024 steps and a
// cancellation stops the machine at the next poll, returning a
// *CanceledError that wraps the context's cause. The cancelled machine is
// closed out like a timed-out one: residual events drain, Stats.Cycles
// records how far it got, and the final metrics interval is emitted, so
// partial statistics stay readable.
func (m *Machine) RunContext(ctx context.Context, maxCycles uint64) error {
	skip := m.cfg.StepMode == config.StepSkip
	// Quiescence wake reports feed skipAhead and nothing else: under the
	// naive stepper the per-tick wake scan is dead work, so turn it off.
	for _, c := range m.cores {
		c.SetWakeHints(skip)
	}
	done := ctx.Done()
	steps := 0
	for !m.Done() {
		if m.clock.Now() >= maxCycles {
			m.finish()
			return &TimeoutError{MaxCycles: maxCycles, Model: m.cfg.Model.String(),
				Workload: m.Stats.Workload}
		}
		if done != nil && steps&cancelCheckMask == 0 {
			select {
			case <-done:
				m.finish()
				return &CanceledError{Cycles: m.clock.Now(), Model: m.cfg.Model.String(),
					Workload: m.Stats.Workload, Err: ctx.Err(), Cause: context.Cause(ctx)}
			default:
			}
		}
		steps++
		m.Step()
		if skip {
			m.skipAhead(maxCycles)
		}
	}
	m.finish()
	return nil
}

// finish closes out a run on both the completion and the timeout path:
// drain residual events (late invalidation deliveries), record how far the
// machine got, capture the NoC counters, and emit the final (possibly
// short) metrics interval. A timed-out run therefore reports its cycle
// count and a complete metrics series just like a finished one.
func (m *Machine) finish() {
	for m.clock.Len() > 0 {
		next, _ := m.clock.NextCycle()
		m.clock.RunUntil(next, m.hier)
	}
	m.Stats.Cycles = m.clock.Now()
	m.captureNoC()
	if m.tracer.MetricsInterval() > 0 {
		m.sampleMetrics(m.clock.Now())
	}
}

// captureNoC copies the interconnect's traffic counters into the stats so
// reports can show NoC load next to the core counters.
func (m *Machine) captureNoC() {
	t := m.net.Traffic
	m.Stats.NoC = stats.NoCTraffic{
		ControlMsgs:  t.ControlMsgs,
		DataMsgs:     t.DataMsgs,
		ControlFlits: t.ControlFlits,
		DataFlits:    t.DataFlits,
	}
}
