package sesa

import (
	"sesa/internal/hist"
	"sesa/internal/report"
)

// HistSet is the latency-histogram sinks of one machine: a collector per
// core plus one for the interconnect.
type HistSet = hist.Set

// HistCollector holds one latency histogram per instrumented metric.
type HistCollector = hist.Collector

// HistSummary is the fixed percentile digest (count/mean/min/p50/p90/p99/max).
type HistSummary = hist.Summary

// HistRun is one machine's latency distributions, named for export.
type HistRun = report.HistRun

// HistReport is a set of named histogram runs, the document behind -hist-out.
type HistReport = report.HistReport

// NewHistSet builds the histogram sinks for a machine with the given core
// count; attach it with System.AttachHists or SweepJob.Hists.
func NewHistSet(cores int) *HistSet { return hist.NewSet(cores) }

// NewHistRun snapshots a machine's histogram set under the given name.
func NewHistRun(name string, s *HistSet) HistRun { return report.NewHistRun(name, s) }

// AttachHists wires latency-histogram sinks through the system's cores,
// memory hierarchy and interconnect. Call before Run.
func (s *System) AttachHists(h *HistSet) { s.m.AttachHists(h) }

// Hists returns the system's attached histogram set (nil when disabled).
func (s *System) Hists() *HistSet { return s.m.Hists() }
