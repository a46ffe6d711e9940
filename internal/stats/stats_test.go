package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStallPct(t *testing.T) {
	var c Core
	c.Cycles = 200
	c.StallCycles[StallROB] = 50
	c.StallCycles[StallLQ] = 20
	c.StallCycles[StallSQ] = 10
	if got := c.StallPct(StallROB); got != 25 {
		t.Errorf("ROB stall = %.1f, want 25", got)
	}
	if got := c.TotalStallPct(); got != 40 {
		t.Errorf("total stall = %.1f, want 40", got)
	}
	var zero Core
	if zero.StallPct(StallROB) != 0 {
		t.Error("zero cycles must give zero percent")
	}
}

func TestTotalAggregation(t *testing.T) {
	m := New("x86", "w", 2)
	m.Cores[0] = Core{Cycles: 100, RetiredInsts: 1000, SLFLoads: 10, GateStalls: 2, GateStallCycles: 20}
	m.Cores[1] = Core{Cycles: 150, RetiredInsts: 500, SLFLoads: 5, Squashes: 1, SAReexecInsts: 30, ReexecInsts: 40}
	tot := m.Total()
	if tot.RetiredInsts != 1500 || tot.SLFLoads != 15 {
		t.Errorf("totals wrong: %+v", tot)
	}
	if tot.Cycles != 150 {
		t.Errorf("total cycles = max, got %d", tot.Cycles)
	}
}

func TestCharacterize(t *testing.T) {
	m := New("370-SLFSoS-key", "bench", 1)
	m.Cycles = 2000
	m.Cores[0] = Core{
		Cycles:          2000,
		RetiredInsts:    4000,
		RetiredLoads:    1000,
		SLFLoads:        200,
		GateStalls:      40,
		GateStallCycles: 400,
		SAReexecInsts:   20,
		ReexecInsts:     60,
	}
	ch := m.Characterize()
	if ch.LoadsPct != 25 {
		t.Errorf("loads%% = %.2f", ch.LoadsPct)
	}
	if ch.ForwardedPct != 5 {
		t.Errorf("fwd%% = %.2f", ch.ForwardedPct)
	}
	if ch.GateStallsPct != 1 {
		t.Errorf("gate%% = %.2f", ch.GateStallsPct)
	}
	if ch.AvgStallCycles != 10 {
		t.Errorf("avg stall = %.2f", ch.AvgStallCycles)
	}
	if ch.ReexecutedPct != 0.5 {
		t.Errorf("SA reexec%% = %.2f", ch.ReexecutedPct)
	}
	if ch.TotalReexecPct != 1.5 {
		t.Errorf("total reexec%% = %.2f", ch.TotalReexecPct)
	}
	if ch.IPC != 2 {
		t.Errorf("IPC = %.2f", ch.IPC)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("geomean(1,4) = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
	if g := GeoMean([]float64{2, 0, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("non-positive entries should be ignored, got %f", g)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

// TestGeoMeanBounds: geomean of positive values lies within [min, max].
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e100 && x > 1e-100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		g := GeoMean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStallCauseString(t *testing.T) {
	if StallROB.String() != "ROB" || StallSQ.String() != "SQ/SB" {
		t.Error("stall cause names")
	}
}
