// Package noc models the on-chip interconnect of Table III: a fully
// connected topology with 6-cycle switch-to-switch latency, 1-flit control
// messages and 5-flit data messages.
//
// Because the topology is fully connected, every message takes exactly one
// switch-to-switch traversal plus its serialization latency; the model
// therefore reduces to a per-message delay plus traffic accounting, with
// optional deterministic jitter used by litmus witness search.
package noc

import (
	"sesa/internal/config"
	"sesa/internal/hist"
)

// MsgKind classifies interconnect messages by size class.
type MsgKind int

// Message kinds.
const (
	// Control messages: requests, invalidations, acks (1 flit).
	Control MsgKind = iota
	// Data messages: cache-line transfers (5 flits).
	Data
)

// Traffic accumulates interconnect usage counters, per message class so
// Table IV-style reports can attribute bandwidth to coherence control
// versus line transfers.
type Traffic struct {
	ControlMsgs  uint64
	DataMsgs     uint64
	ControlFlits uint64
	DataFlits    uint64
	Flits        uint64
}

// Network is the fully connected interconnect model.
type Network struct {
	cfg     config.NoC
	jitter  int
	rng     rngState
	Traffic Traffic

	// hc is the latency-histogram sink; nil when histograms are disabled.
	hc *hist.Collector
}

// AttachHists sets the network's histogram collector (nil disables it);
// every delivered message records its per-class latency. The machine's
// AttachTracer calls it with its tracer's interconnect collector.
func (n *Network) AttachHists(c *hist.Collector) { n.hc = c }

// New returns a network with the given parameters. jitter adds a
// deterministic pseudo-random 0..jitter extra cycles to each message (0
// disables it); seed selects the jitter stream.
func New(cfg config.NoC, jitter int, seed uint64) *Network {
	n := new(Network)
	n.Reset(cfg, jitter, seed)
	return n
}

// Reset returns the network to the state New(cfg, jitter, seed) builds:
// zero traffic, the jitter stream restarted from seed, and no histogram
// sink.
func (n *Network) Reset(cfg config.NoC, jitter int, seed uint64) {
	*n = Network{cfg: cfg, jitter: jitter, rng: rngState(seed*0x9E3779B97F4A7C15 + 0x61C88647)}
}

// Delay returns the one-way latency of a message of the given kind,
// including jitter, and accounts the traffic.
func (n *Network) Delay(kind MsgKind) int {
	var d int
	switch kind {
	case Data:
		d = n.cfg.DataLatency()
		n.Traffic.DataMsgs++
		n.Traffic.DataFlits += uint64(n.cfg.DataFlits)
		n.Traffic.Flits += uint64(n.cfg.DataFlits)
	default:
		d = n.cfg.ControlLatency()
		n.Traffic.ControlMsgs++
		n.Traffic.ControlFlits += uint64(n.cfg.ControlFlits)
		n.Traffic.Flits += uint64(n.cfg.ControlFlits)
	}
	if n.jitter > 0 {
		d += int(n.rng.next() % uint64(n.jitter+1))
	}
	if n.hc != nil {
		m := hist.NoCControl
		if kind == Data {
			m = hist.NoCData
		}
		n.hc.Observe(m, uint64(d))
	}
	return d
}

// rngState is a splitmix64 generator: tiny, fast and deterministic.
type rngState uint64

func (s *rngState) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
