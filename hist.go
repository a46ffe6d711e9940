package sesa

import (
	"sesa/internal/hist"
	"sesa/internal/report"
)

// HistSet is the latency histograms of one machine: a collector per core
// plus one for the interconnect. A tracer built with TraceOptions.Hists
// collects one, read back with Tracer.Hists.
type HistSet = hist.Set

// HistCollector holds one latency histogram per instrumented metric.
type HistCollector = hist.Collector

// HistSummary is the fixed percentile digest (count/mean/min/p50/p90/p99/max).
type HistSummary = hist.Summary

// HistRun is one machine's latency distributions, named for export.
type HistRun = report.HistRun

// HistReport is a set of named histogram runs, the document behind -hist-out.
type HistReport = report.HistReport

// NewHistRun snapshots a machine's histogram set under the given name.
func NewHistRun(name string, s *HistSet) HistRun { return report.NewHistRun(name, s) }
