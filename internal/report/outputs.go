package report

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sesa/internal/hist"
	"sesa/internal/obs"
)

// Outputs is the run-output flag group the CLIs share: the cycle-level
// pipeline trace (-trace-out, -trace-buf), the interval metrics
// (-metrics-interval, -metrics-out) and the latency histograms (-hist-out,
// -hist-format). A CLI registers it with NewOutputs, calls Check before it
// simulates, adds every finished run with Add, and calls Write at the end.
type Outputs struct {
	traceOut        string
	traceBuf        int
	metricsInterval uint64
	metricsOut      string
	histOut         string
	histFormat      string

	// Traces and Hists are the runs collected for export, in run order.
	Traces []obs.Run
	Hists  []HistRun
}

// NewOutputs registers the output flags on fs: the histogram flags always,
// the trace and metrics flags only when traced is set.
func NewOutputs(fs *flag.FlagSet, traced bool) *Outputs {
	o := &Outputs{}
	if traced {
		fs.StringVar(&o.traceOut, "trace-out", "", "write a cycle-level pipeline trace to this file (a .kanata path writes a Kanata log, any other Chrome trace-event JSON)")
		fs.IntVar(&o.traceBuf, "trace-buf", obs.DefaultBufCap, "per-core trace ring capacity in events")
		fs.Uint64Var(&o.metricsInterval, "metrics-interval", 0, "sample interval metrics every N cycles (0 disables)")
		fs.StringVar(&o.metricsOut, "metrics-out", "", "write interval metrics to this file (.json for JSON, else CSV)")
	}
	fs.StringVar(&o.histOut, "hist-out", "", "write latency-distribution histograms to this file (empty with -hist-format set = stdout)")
	fs.StringVar(&o.histFormat, "hist-format", "", "histogram format, text or json; setting it (or -hist-out) enables histogram collection")
	return o
}

// Check rejects inconsistent or unknown flag values. Call it after parsing
// and before the first run, so a mistyped flag costs no simulation.
func (o *Outputs) Check() error {
	if (o.metricsInterval > 0) != (o.metricsOut != "") {
		return errors.New("-metrics-interval and -metrics-out must be used together")
	}
	if o.traceOut != "" && o.traceBuf < 1 {
		// A ring that holds no event would write an empty trace.
		return errors.New("-trace-buf must be >= 1")
	}
	switch Format(o.histFormat) {
	case "", Text, JSON:
		return nil
	}
	return fmt.Errorf("unknown -hist-format %q (want text or json)", o.histFormat)
}

// TraceOptions returns the tracer options every run needs, or nil when no
// trace, interval metrics or histograms were requested.
func (o *Outputs) TraceOptions() *obs.Options {
	if o.traceOut == "" && o.metricsInterval == 0 && !o.wantHists() {
		return nil
	}
	opts := obs.Options{MetricsInterval: o.metricsInterval, Hists: o.wantHists()}
	if o.traceOut != "" {
		opts.BufCap = o.traceBuf
	}
	return &opts
}

// wantHists reports whether runs should collect latency histograms.
func (o *Outputs) wantHists() bool { return o.histOut != "" || o.histFormat != "" }

// Add collects a run for export under name. A nil tracer or histogram set
// contributes nothing.
func (o *Outputs) Add(name string, tr *obs.Tracer, hs *hist.Set) {
	if tr != nil {
		o.Traces = append(o.Traces, obs.Run{Name: name, Tracer: tr})
	}
	if hs != nil {
		o.Hists = append(o.Hists, NewHistRun(name, hs))
	}
}

// Write writes every requested output: the trace, the metrics series, then
// the histogram report headed histTitle, which goes to stdout when -hist-out
// is empty or "-". A note naming each written trace and metrics file goes
// to log.
func (o *Outputs) Write(stdout, log io.Writer, histTitle string) error {
	if o.traceOut != "" {
		format, write := "chrome", obs.WriteChrome
		if strings.HasSuffix(o.traceOut, ".kanata") {
			format, write = "kanata", obs.WriteKanata
		}
		if err := writeFile(o.traceOut, func(w io.Writer) error { return write(w, o.Traces) }); err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote %s trace (%d runs) to %s\n", format, len(o.Traces), o.traceOut)
	}
	if o.metricsOut != "" {
		series := NewMetricsSeries(o.Traces)
		write := series.WriteCSV
		if strings.HasSuffix(o.metricsOut, ".json") {
			write = series.WriteJSON
		}
		if err := writeFile(o.metricsOut, write); err != nil {
			return err
		}
		fmt.Fprintf(log, "wrote interval metrics to %s\n", o.metricsOut)
	}
	if !o.wantHists() {
		return nil
	}
	format := Format(o.histFormat)
	if format == "" {
		format = Text
	}
	rep := HistReport{Title: histTitle, Runs: o.Hists}
	if o.histOut == "" || o.histOut == "-" {
		return rep.Write(stdout, format)
	}
	return writeFile(o.histOut, func(w io.Writer) error { return rep.Write(w, format) })
}

// writeFile creates path and fills it with write, returning the first error
// of the write and the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
