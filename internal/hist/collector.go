package hist

import "fmt"

// Metric identifies one instrumented latency distribution. Every metric is
// measured in cycles.
type Metric uint8

// The instrumented distributions.
const (
	// LoadSLF: latency of loads satisfied by store-to-load forwarding.
	LoadSLF Metric = iota
	// LoadL1 / LoadL2 / LoadL3: load completion latency when the request
	// was served by the given cache level.
	LoadL1
	LoadL2
	LoadL3
	// LoadRemote: load completion latency when the directory forwarded the
	// request to a remote owner core (the remote-coherence round trip).
	LoadRemote
	// LoadMem: load completion latency on a full miss to main memory.
	LoadMem
	// NoCControl / NoCData: per-message-class interconnect delivery latency
	// (including jitter).
	NoCControl
	NoCData
	// GateClosed: duration of each retire-gate closed episode, from the
	// retiring SLF load that closed it to the store write that reopened it.
	GateClosed
	// SBResidency: cycles each store spent in the store buffer, from
	// retirement to its memory-order insertion (L1 write).
	SBResidency
	// SquashRefill: per-squash cost, the cycles dispatch stays blocked from
	// the squash to the end of its refill window.
	SquashRefill
	// NumMetrics bounds the metric space; a Collector holds one histogram
	// per metric.
	NumMetrics
)

var metricNames = [...]string{
	LoadSLF:      "load-slf",
	LoadL1:       "load-l1",
	LoadL2:       "load-l2",
	LoadL3:       "load-l3",
	LoadRemote:   "load-remote",
	LoadMem:      "load-mem",
	NoCControl:   "noc-control",
	NoCData:      "noc-data",
	GateClosed:   "gate-closed",
	SBResidency:  "sb-residency",
	SquashRefill: "squash-refill",
}

// String names the metric as it appears in exported tables.
func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// Collector holds one histogram per metric. A core's obs.CoreTracer and the
// NoC hold one each, nil when histograms are disabled, so every hook is one
// never-taken branch. A Collector is single-owner and not safe for
// concurrent use.
type Collector struct {
	h [NumMetrics]Hist
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Observe records one sample of metric m. The receiver must be non-nil —
// callers nil-check the collector pointer, keeping the disabled path free.
func (c *Collector) Observe(m Metric, v uint64) { c.h[m].Record(v) }

// H returns metric m's histogram (nil-safe, for reporting).
func (c *Collector) H(m Metric) *Hist {
	if c == nil {
		return nil
	}
	return &c.h[m]
}

// Summaries returns the percentile summary of every metric with at least one
// sample, keyed by metric name — the JSON shape of a collector (nil-safe).
func (c *Collector) Summaries() map[string]Summary {
	out := make(map[string]Summary)
	if c == nil {
		return out
	}
	for m := Metric(0); m < NumMetrics; m++ {
		if h := &c.h[m]; h.Count() > 0 {
			out[m.String()] = h.Summarize()
		}
	}
	return out
}

// Merge folds o's histograms into c, metric by metric.
func (c *Collector) Merge(o *Collector) {
	if o == nil {
		return
	}
	for m := range c.h {
		c.h[m].Merge(&o.h[m])
	}
}

// Set is one machine's histogram sinks: a collector per core plus one for
// the interconnect (whose messages are not attributable to a single core).
type Set struct {
	cores []*Collector
	net   *Collector
}

// NewSet builds the sinks for a machine with the given core count.
func NewSet(cores int) *Set {
	s := &Set{cores: make([]*Collector, cores), net: NewCollector()}
	for i := range s.cores {
		s.cores[i] = NewCollector()
	}
	return s
}

// Core returns core i's collector, or nil when the set is nil — the pointer
// the core's obs.CoreTracer stores and nil-checks.
func (s *Set) Core(i int) *Collector {
	if s == nil {
		return nil
	}
	return s.cores[i]
}

// Net returns the interconnect collector (nil when the set is nil).
func (s *Set) Net() *Collector {
	if s == nil {
		return nil
	}
	return s.net
}

// Cores reports the number of per-core collectors.
func (s *Set) Cores() int {
	if s == nil {
		return 0
	}
	return len(s.cores)
}

// Merged returns a fresh collector merging every core and the interconnect:
// the machine-level view.
func (s *Set) Merged() *Collector {
	m := NewCollector()
	if s == nil {
		return m
	}
	for _, c := range s.cores {
		m.Merge(c)
	}
	m.Merge(s.net)
	return m
}

// Merge folds o into s core by core; the sets must have the same shape.
// This is how litmus iterations and runner jobs of the same machine
// configuration aggregate into one distribution.
func (s *Set) Merge(o *Set) error {
	if o == nil {
		return nil
	}
	if len(o.cores) != len(s.cores) {
		return fmt.Errorf("hist: cannot merge a %d-core set into a %d-core set",
			len(o.cores), len(s.cores))
	}
	for i, c := range s.cores {
		c.Merge(o.cores[i])
	}
	s.net.Merge(o.net)
	return nil
}
