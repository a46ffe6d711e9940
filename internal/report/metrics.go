package report

import (
	"encoding/csv"
	"io"
	"strconv"

	"sesa/internal/obs"
)

// MetricsSeries is the interval-metrics time series of one or more runs:
// per-core IPC, structure occupancies, gate-closed fraction and squash rate
// sampled every N cycles by the simulator's observability layer.
type MetricsSeries struct {
	// Interval is the configured sampling period in cycles.
	Interval uint64 `json:"interval"`
	// Runs holds one entry per traced machine, in run order.
	Runs []MetricsRun `json:"runs"`
}

// MetricsRun is one run's samples.
type MetricsRun struct {
	Name    string       `json:"name"`
	Samples []obs.Sample `json:"samples"`
}

// NewMetricsSeries collects the metrics of the named runs. Runs whose
// tracer has no metrics (sampling disabled) contribute an empty sample set,
// keeping run indices aligned with the trace export.
func NewMetricsSeries(runs []obs.Run) MetricsSeries {
	var s MetricsSeries
	for _, r := range runs {
		mr := MetricsRun{Name: r.Name}
		if m := r.Tracer.Metrics(); m != nil {
			if s.Interval == 0 {
				s.Interval = m.Interval
			}
			mr.Samples = m.Samples
		}
		s.Runs = append(s.Runs, mr)
	}
	return s
}

// WriteCSV emits one row per (run, interval, core) sample.
func (s MetricsSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"run", "cycle", "span", "core", "ipc",
		"rob_occ", "lq_occ", "sb_occ", "gate_closed_frac", "squashes",
	}); err != nil {
		return err
	}
	for _, run := range s.Runs {
		for _, sm := range run.Samples {
			rec := []string{
				run.Name,
				strconv.FormatUint(sm.Cycle, 10),
				strconv.FormatUint(sm.Span, 10),
				strconv.Itoa(sm.Core),
				f(sm.IPC),
				strconv.Itoa(sm.ROBOcc),
				strconv.Itoa(sm.LQOcc),
				strconv.Itoa(sm.SBOcc),
				f(sm.GateClosedFrac),
				strconv.FormatUint(sm.Squashes, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the series as a JSON document.
func (s MetricsSeries) WriteJSON(w io.Writer) error { return writeJSON(w, s) }
