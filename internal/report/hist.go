package report

import (
	"fmt"
	"io"

	"sesa/internal/hist"
)

// HistRun is one machine's latency distributions: the merged machine-level
// view plus the per-core collectors it was merged from. The interconnect
// collector is folded into Merged (its messages are not attributable to a
// single core).
type HistRun struct {
	Name   string
	Merged *hist.Collector
	Cores  []*hist.Collector
}

// NewHistRun snapshots a machine's histogram set under the given name.
func NewHistRun(name string, s *hist.Set) HistRun {
	r := HistRun{Name: name, Merged: s.Merged()}
	for i := 0; i < s.Cores(); i++ {
		r.Cores = append(r.Cores, s.Core(i))
	}
	return r
}

// HistReport is a set of named runs, the document behind -hist-out.
type HistReport struct {
	Title string
	Runs  []HistRun
}

// histRunJSON is the JSON shape of one run.
type histRunJSON struct {
	Name   string                    `json:"name"`
	Merged map[string]hist.Summary   `json:"merged"`
	Cores  []map[string]hist.Summary `json:"cores,omitempty"`
}

// WriteJSON emits the report as a JSON document.
func (r HistReport) WriteJSON(w io.Writer) error {
	doc := struct {
		Title string        `json:"title"`
		Runs  []histRunJSON `json:"runs"`
	}{Title: r.Title}
	for _, run := range r.Runs {
		j := histRunJSON{Name: run.Name, Merged: run.Merged.Summaries()}
		for _, c := range run.Cores {
			j.Cores = append(j.Cores, c.Summaries())
		}
		doc.Runs = append(doc.Runs, j)
	}
	return writeJSON(w, doc)
}

// WriteText emits percentile tables: for each run, the merged machine-level
// table followed by one table per core that recorded samples. Output is
// deterministic (metrics in enum order) and depends only on the recorded
// samples, so it is byte-identical across worker counts.
func (r HistReport) WriteText(w io.Writer) error {
	if r.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", r.Title); err != nil {
			return err
		}
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "\n-- %s (merged) --\n", run.Name); err != nil {
			return err
		}
		if err := writeCollectorTable(w, run.Merged); err != nil {
			return err
		}
		for i, c := range run.Cores {
			if !collectorHasSamples(c) {
				continue
			}
			if _, err := fmt.Fprintf(w, "\n-- %s core %d --\n", run.Name, i); err != nil {
				return err
			}
			if err := writeCollectorTable(w, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Write dispatches on format; histogram reports support text and json.
func (r HistReport) Write(w io.Writer, format Format) error {
	switch format {
	case Text:
		return r.WriteText(w)
	case JSON:
		return r.WriteJSON(w)
	}
	return fmt.Errorf("report: histogram format %q not supported (want text or json)", format)
}

func collectorHasSamples(c *hist.Collector) bool {
	for m := hist.Metric(0); m < hist.NumMetrics; m++ {
		if c.H(m).Count() > 0 {
			return true
		}
	}
	return false
}

// histTableHeader matches writeCollectorTable's columns.
const histTableHeader = "metric             count        mean       p50       p90       p99       max"

func writeCollectorTable(w io.Writer, c *hist.Collector) error {
	if !collectorHasSamples(c) {
		_, err := fmt.Fprintln(w, "(no samples)")
		return err
	}
	if _, err := fmt.Fprintln(w, histTableHeader); err != nil {
		return err
	}
	for m := hist.Metric(0); m < hist.NumMetrics; m++ {
		h := c.H(m)
		if h.Count() == 0 {
			continue
		}
		s := h.Summarize()
		if _, err := fmt.Fprintf(w, "%-15s %9d  %10.2f %9d %9d %9d %9d\n",
			m, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max); err != nil {
			return err
		}
	}
	return nil
}
