// Package report renders experiment results as text, CSV and JSON, so
// regenerated tables and figures can be read, diffed, plotted and archived
// alongside the paper's, and owns the CLIs' run-output flags (Outputs).
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sesa/internal/stats"
)

// Format selects an output encoding.
type Format string

// Supported encodings.
const (
	Text Format = "text"
	CSV  Format = "csv"
	JSON Format = "json"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case Text, CSV, JSON:
		return Format(s), nil
	}
	return "", fmt.Errorf("report: unknown format %q (want text, csv or json)", s)
}

// CharacterizationTable is a Table IV-style result set.
type CharacterizationTable struct {
	Title string                   `json:"title"`
	Rows  []stats.Characterization `json:"rows"`
}

// Write renders the table in the given format.
func (t CharacterizationTable) Write(w io.Writer, format Format) error {
	switch format {
	case Text:
		return t.WriteText(w)
	case CSV:
		return t.WriteCSV(w)
	case JSON:
		return t.WriteJSON(w)
	}
	return fmt.Errorf("report: unknown format %q", format)
}

// tableIVHeader heads WriteText's columns. It is printed verbatim, not as a
// Printf format, so its percent signs appear singly.
const tableIVHeader = "Benchmark                 Instructions  Loads%    Fwd%  Gate-Stl%  AvgStallCyc  Reexec%"

// WriteText emits the Table IV layout: the title, one row per benchmark and
// a row of column averages.
func (t CharacterizationTable) WriteText(w io.Writer) error {
	const row = "%-25s %12s  %6.3f  %6.3f  %9.3f  %11.3f  %7.3f\n"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", t.Title, tableIVHeader)
	var cols [5][]float64
	for _, r := range t.Rows {
		v := [5]float64{r.LoadsPct, r.ForwardedPct, r.GateStallsPct, r.AvgStallCycles, r.ReexecutedPct}
		fmt.Fprintf(&b, row, r.Benchmark, strconv.FormatUint(r.Instructions, 10), v[0], v[1], v[2], v[3], v[4])
		for i := range v {
			cols[i] = append(cols[i], v[i])
		}
	}
	fmt.Fprintf(&b, row, "Average", "", stats.Mean(cols[0]), stats.Mean(cols[1]),
		stats.Mean(cols[2]), stats.Mean(cols[3]), stats.Mean(cols[4]))
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits one row per benchmark with the Table IV columns.
func (t CharacterizationTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "instructions", "loads_pct", "forwarded_pct",
		"gate_stalls_pct", "avg_stall_cycles", "sa_reexec_pct",
		"total_reexec_pct", "cycles", "ipc",
		"stall_rob_pct", "stall_lq_pct", "stall_sq_pct",
	}); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := []string{
			r.Benchmark,
			strconv.FormatUint(r.Instructions, 10),
			f(r.LoadsPct), f(r.ForwardedPct),
			f(r.GateStallsPct), f(r.AvgStallCycles), f(r.ReexecutedPct),
			f(r.TotalReexecPct),
			strconv.FormatUint(r.Cycles, 10), f(r.IPC),
			f(r.StallROBPct), f(r.StallLQPct), f(r.StallSQPct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the table as a JSON document.
func (t CharacterizationTable) WriteJSON(w io.Writer) error { return writeJSON(w, t) }

// ComparisonTable is a Figure 10-style normalized-execution-time matrix.
type ComparisonTable struct {
	Title      string   `json:"title"`
	Benchmarks []string `json:"benchmarks"`
	Models     []string `json:"models"`
	// Normalized[model][i] is benchmark i's time normalized to the
	// baseline model.
	Normalized map[string][]float64 `json:"normalized"`
}

// Write renders the comparison in the given format.
func (t ComparisonTable) Write(w io.Writer, format Format) error {
	switch format {
	case Text:
		return t.WriteText(w)
	case CSV:
		return t.WriteCSV(w)
	case JSON:
		return t.WriteJSON(w)
	}
	return fmt.Errorf("report: unknown format %q", format)
}

// WriteText emits the Figure 10 layout: the title, one row per benchmark
// with a column per model, and a row of per-model geometric means.
func (t ComparisonTable) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-18s", t.Title, "benchmark")
	for _, m := range t.Models {
		fmt.Fprintf(&b, " %15s", m)
	}
	for i, bench := range t.Benchmarks {
		fmt.Fprintf(&b, "\n%-18s", bench)
		for _, m := range t.Models {
			fmt.Fprintf(&b, " %15.3f", t.Normalized[m][i])
		}
	}
	gm := t.GeoMeans()
	fmt.Fprintf(&b, "\n%-18s", "GeoMean")
	for _, m := range t.Models {
		fmt.Fprintf(&b, " %15.3f", gm[m])
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// GeoMeans returns the per-model geometric means.
func (t ComparisonTable) GeoMeans() map[string]float64 {
	out := make(map[string]float64, len(t.Models))
	for _, m := range t.Models {
		out[m] = stats.GeoMean(t.Normalized[m])
	}
	return out
}

// WriteCSV emits one row per benchmark, one column per model, plus a
// geomean row.
func (t ComparisonTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"benchmark"}, t.Models...)); err != nil {
		return err
	}
	for i, b := range t.Benchmarks {
		rec := []string{b}
		for _, m := range t.Models {
			rec = append(rec, f(t.Normalized[m][i]))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	gm := t.GeoMeans()
	rec := []string{"geomean"}
	for _, m := range t.Models {
		rec = append(rec, f(gm[m]))
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the comparison as a JSON document.
func (t ComparisonTable) WriteJSON(w io.Writer) error { return writeJSON(w, t) }

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// writeJSON emits v as an indented JSON document.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// SweepSummary aggregates a parallel experiment sweep: how much simulated
// work the run got through and how fast the host delivered it. It is the
// wall-clock side of a sweep and is therefore NOT deterministic — emit it to
// stderr or a perf log, never interleaved with table output that must be
// byte-identical across worker counts.
type SweepSummary struct {
	Jobs   int `json:"jobs"`
	Failed int `json:"failed"`
	// TimedOut is the subset of Failed whose machines exceeded their cycle
	// bound (the liveness check) rather than failing outright.
	TimedOut int `json:"timed_out"`
	// Canceled is the subset of Failed cut short by context cancellation
	// (a canceled RunSweepContext or a DELETEd sesa-serve sweep).
	Canceled int `json:"canceled"`
	Workers  int `json:"workers"`
	// WallSeconds is the end-to-end sweep duration.
	WallSeconds float64 `json:"wall_seconds"`
	// SimCycles and SimInsts total the simulated cycles and retired
	// instructions across all jobs (failed jobs contribute what they ran).
	SimCycles uint64 `json:"sim_cycles"`
	SimInsts  uint64 `json:"sim_insts"`
	// TraceCacheHits/Misses are the shared trace cache's cumulative
	// process-wide counters at the end of the sweep.
	TraceCacheHits   uint64 `json:"trace_cache_hits"`
	TraceCacheMisses uint64 `json:"trace_cache_misses"`
	// CyclesPerSec and InstsPerSec carry the aggregate host-side
	// throughput into the serialized form (BENCH records, status JSON);
	// the pool fills them from CyclesPerSecond/InstsPerSecond.
	CyclesPerSec float64 `json:"cycles_per_second"`
	InstsPerSec  float64 `json:"insts_per_second"`
}

// CyclesPerSecond is the sweep's aggregate simulation throughput.
func (s SweepSummary) CyclesPerSecond() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.WallSeconds
}

// InstsPerSecond is the aggregate retired-instruction throughput.
func (s SweepSummary) InstsPerSecond() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return float64(s.SimInsts) / s.WallSeconds
}

// String renders the one-line summary the CLIs print to stderr.
func (s SweepSummary) String() string {
	return fmt.Sprintf(
		"sweep: %d jobs (%d failed, %d timed out) on %d workers in %.2fs — %d simulated cycles (%.3g cyc/s), %d instructions (%.3g inst/s), trace cache %d hits / %d misses",
		s.Jobs, s.Failed, s.TimedOut, s.Workers, s.WallSeconds,
		s.SimCycles, s.CyclesPerSecond(), s.SimInsts, s.InstsPerSecond(),
		s.TraceCacheHits, s.TraceCacheMisses)
}
