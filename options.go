package sesa

import "sesa/internal/sim"

// Option configures a System at construction. Options consolidate the
// cross-cutting concerns that used to require post-construction setters —
// workload naming, pipeline tracing, latency histograms — into one call:
//
//	sys, err := sesa.New(cfg,
//		sesa.WithWorkloadName("mp-demo"),
//		sesa.WithHistograms(hists))
//
// The attach methods (AttachTracer, AttachHists, and the workload argument
// of NewSystem) remain as the imperative equivalents; an option and its
// setter are interchangeable as long as both happen before Run.
type Option func(*sysOptions)

// sysOptions accumulates the applied options.
type sysOptions struct {
	workload string
	tracer   *Tracer
	hists    *HistSet
}

// WithWorkloadName names the run in statistics and reports, as NewSystem's
// workload argument does. The zero value leaves the run unnamed.
func WithWorkloadName(name string) Option {
	return func(o *sysOptions) { o.workload = name }
}

// WithTrace attaches an observability tracer (per-core pipeline event rings
// plus interval metrics) to the machine, equivalent to calling AttachTracer
// before Run. A nil tracer is a no-op.
func WithTrace(t *Tracer) Option {
	return func(o *sysOptions) { o.tracer = t }
}

// WithHistograms attaches latency-histogram sinks to the machine's cores,
// memory hierarchy and interconnect, equivalent to calling AttachHists
// before Run. A nil set is a no-op.
func WithHistograms(h *HistSet) Option {
	return func(o *sysOptions) { o.hists = h }
}

// New builds a machine from the configuration and applies the options. It is
// the constructor behind NewSystem; the options cover everything that must
// happen between construction and Run.
func New(cfg Config, opts ...Option) (*System, error) {
	var o sysOptions
	for _, opt := range opts {
		opt(&o)
	}
	m, err := sim.New(cfg, o.workload)
	if err != nil {
		return nil, err
	}
	s := &System{m: m}
	if o.tracer != nil {
		s.AttachTracer(o.tracer)
	}
	if o.hists != nil {
		s.AttachHists(o.hists)
	}
	return s, nil
}
