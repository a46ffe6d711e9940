package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sesa/internal/hist"
	"sesa/internal/isa"
)

func TestEncodeDecodeKey(t *testing.T) {
	for _, slot := range []int{0, 1, 7, 55} {
		for _, sort := range []bool{false, true} {
			k := EncodeKey(slot, sort)
			if k == KeyNone {
				t.Fatalf("EncodeKey(%d,%v) collides with KeyNone", slot, sort)
			}
			gs, gb := DecodeKey(k)
			if gs != slot || gb != sort {
				t.Errorf("roundtrip(%d,%v) = (%d,%v)", slot, sort, gs, gb)
			}
		}
	}
}

func TestKindAndCauseNames(t *testing.T) {
	for k := KDispatch; k < numKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for _, c := range []Cause{CauseNone, CauseSA, CauseMSpec, CauseStoreSet, CauseInval, CauseEvict} {
		if s := c.String(); s == "" || strings.HasPrefix(s, "cause(") {
			t.Errorf("cause %d has no name", c)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(1, Options{BufCap: 4}).Core(0)
	for i := 0; i < 6; i++ {
		tr.Record(Event{Cycle: uint64(i), Kind: KRetire, Seq: uint64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The two oldest were overwritten; order stays chronological.
	for i, ev := range evs {
		if want := uint64(i + 2); ev.Seq != want {
			t.Errorf("events[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", tr.Dropped())
	}
	// Counts survive the wrap: all 6 retires are tallied.
	if got := tr.Count(KRetire); got != 6 {
		t.Errorf("Count(KRetire) = %d, want 6", got)
	}
}

func TestNilCoreTracer(t *testing.T) {
	var tr *CoreTracer
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Count(KRetire) != 0 {
		t.Error("nil tracer accessors should return zero values")
	}
}

func TestDisabledTracer(t *testing.T) {
	var tr *Tracer
	if tr.MetricsInterval() != 0 {
		t.Error("nil tracer MetricsInterval should be 0")
	}
	if tr.Metrics() != nil {
		t.Error("nil tracer Metrics should be nil")
	}
	tr = New(2, Options{}) // events and metrics both off
	if tr.Core(0) != nil || tr.Core(1) != nil {
		t.Error("Core should be nil when BufCap is 0")
	}
	if tr.Metrics() != nil {
		t.Error("Metrics should be nil when the interval is 0")
	}
	if tr.Hists() != nil {
		t.Error("Hists should be nil when histograms are off")
	}
}

// TestHistsOnlyTracer: a tracer that collects histograms but no events
// gives each core a tracer whose Record keeps nothing and whose Observe
// lands in that core's collector.
func TestHistsOnlyTracer(t *testing.T) {
	tr := New(2, Options{Hists: true})
	ct := tr.Core(1)
	if ct == nil || tr.Hists() == nil {
		t.Fatal("a histogram tracer must give each core a tracer and own a histogram set")
	}
	ct.Record(Event{Cycle: 3, Kind: KRetire})
	ct.Observe(hist.GateClosed, 7)
	if len(ct.Events()) != 0 || ct.Count(KRetire) != 0 {
		t.Errorf("a tracer without a ring recorded %d events, counted %d", len(ct.Events()), ct.Count(KRetire))
	}
	if got := tr.Hists().Core(1).H(hist.GateClosed).Count(); got != 1 {
		t.Errorf("core 1 gate-closed samples = %d, want 1", got)
	}
	if got := tr.Hists().Core(0).H(hist.GateClosed).Count(); got != 0 {
		t.Errorf("core 0 gate-closed samples = %d, want 0", got)
	}
}

func TestMetricsDeltas(t *testing.T) {
	m := newMetrics(1, 100)
	m.Sample(100, []CoreSnapshot{{Retired: 150, Squashes: 2, GateClosedCycles: 25, ROBOcc: 10, LQOcc: 4, SBOcc: 3}})
	m.Sample(100, []CoreSnapshot{{Retired: 150}}) // zero span: ignored
	m.Sample(160, []CoreSnapshot{{Retired: 180, Squashes: 2, GateClosedCycles: 40, ROBOcc: 7, LQOcc: 2, SBOcc: 1}})
	if len(m.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(m.Samples))
	}
	s0, s1 := m.Samples[0], m.Samples[1]
	if s0.Cycle != 100 || s0.Span != 100 || s0.IPC != 1.5 || s0.GateClosedFrac != 0.25 || s0.Squashes != 2 {
		t.Errorf("sample 0 = %+v", s0)
	}
	if s1.Cycle != 160 || s1.Span != 60 || s1.IPC != 0.5 || s1.GateClosedFrac != 0.25 || s1.Squashes != 0 {
		t.Errorf("sample 1 = %+v", s1)
	}
	if s1.ROBOcc != 7 || s1.LQOcc != 2 || s1.SBOcc != 1 {
		t.Errorf("sample 1 occupancies = %+v", s1)
	}
}

// synthTracer records a tiny two-instruction run with an SLF load, a gate
// close/reopen pair, a squash and a snoop — every exporter code path.
func synthTracer() *Tracer {
	tr := New(1, Options{BufCap: 64})
	c := tr.Core(0)
	c.Record(Event{Cycle: 0, Kind: KDispatch, Op: isa.OpStore, Seq: 0, TraceIdx: 0, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 1, Kind: KDispatch, Op: isa.OpLoad, Seq: 1, TraceIdx: 1, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 2, Kind: KIssue, Op: isa.OpStore, Seq: 0, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 2, Kind: KPerform, Op: isa.OpStore, Seq: 0, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 3, Kind: KIssue, Op: isa.OpLoad, Seq: 1, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 3, Kind: KSLFHit, Op: isa.OpLoad, Seq: 1, Key: EncodeKey(0, false), Addr: 0x100})
	c.Record(Event{Cycle: 4, Kind: KPerform, Op: isa.OpLoad, Seq: 1, Key: KeyNone, Addr: 0x100, N: 7})
	c.Record(Event{Cycle: 5, Kind: KRetire, Op: isa.OpStore, Seq: 0, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 6, Kind: KRetire, Op: isa.OpLoad, Seq: 1, Key: KeyNone, Addr: 0x100})
	c.Record(Event{Cycle: 6, Kind: KGateClose, Op: isa.OpLoad, Seq: 1, Key: EncodeKey(0, false), Addr: 0x100})
	c.Record(Event{Cycle: 7, Kind: KSnoop, Cause: CauseInval, Key: KeyNone, Addr: 0x140})
	c.Record(Event{Cycle: 8, Kind: KDispatch, Op: isa.OpALU, Seq: 2, TraceIdx: 2, Key: KeyNone})
	c.Record(Event{Cycle: 9, Kind: KSquash, Cause: CauseSA, Op: isa.OpALU, Seq: 2, TraceIdx: 2, Key: KeyNone, Addr: 0x140, N: 1})
	c.Record(Event{Cycle: 9, Kind: KFlush, Cause: CauseSA, Op: isa.OpALU, Seq: 2, TraceIdx: 2, Key: KeyNone})
	c.Record(Event{Cycle: 10, Kind: KSBInsert, Op: isa.OpStore, Seq: 0, Key: EncodeKey(0, false), Addr: 0x100})
	c.Record(Event{Cycle: 10, Kind: KGateReopen, Op: isa.OpStore, Seq: 0, Key: EncodeKey(0, false), Addr: 0x100})
	return tr
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	runs := []Run{{Name: "synth/test", Tracer: synthTracer()}}
	if err := WriteChrome(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var begins, ends, completes, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "X":
			completes++
		case "i":
			instants++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("gate B/E = %d/%d, want 1/1", begins, ends)
	}
	// Three instructions: two retired, one squashed.
	if completes != 3 {
		t.Errorf("complete events = %d, want 3", completes)
	}
	// SLF hit, snoop, squash, SB insert.
	if instants != 4 {
		t.Errorf("instant events = %d, want 4", instants)
	}
	if !strings.Contains(buf.String(), "(SLF)") {
		t.Error("SLF load should be labelled in its complete event")
	}
}

func TestWriteKanata(t *testing.T) {
	var buf bytes.Buffer
	runs := []Run{{Name: "synth/test", Tracer: synthTracer()}}
	if err := WriteKanata(&buf, runs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var retires, flushes, inits int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "I\t"):
			inits++
		case strings.HasPrefix(l, "R\t"):
			if strings.HasSuffix(l, "\t1") {
				flushes++
			} else {
				retires++
			}
		}
	}
	if inits != 3 {
		t.Errorf("I records = %d, want 3", inits)
	}
	if retires != 2 || flushes != 1 {
		t.Errorf("retire/flush records = %d/%d, want 2/1", retires, flushes)
	}
	if !strings.Contains(out, "#\tgate close tid=0") || !strings.Contains(out, "#\tgate reopen tid=0") {
		t.Error("gate transition comments missing")
	}
}

// TestExportDeterminism: exporting the same recorded state twice is
// byte-identical — the property the CLI relies on for -jobs invariance.
func TestExportDeterminism(t *testing.T) {
	runs := []Run{{Name: "a", Tracer: synthTracer()}, {Name: "b", Tracer: synthTracer()}}
	var c1, c2, k1, k2 bytes.Buffer
	if err := WriteChrome(&c1, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&c2, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteKanata(&k1, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteKanata(&k2, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("chrome export is not deterministic")
	}
	if !bytes.Equal(k1.Bytes(), k2.Bytes()) {
		t.Error("kanata export is not deterministic")
	}
}
