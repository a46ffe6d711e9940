package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"":        slog.LevelInfo,
		"info":    slog.LevelInfo,
		"debug":   slog.LevelDebug,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"ERROR":   slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", KeySweep, "sw-000001")
	if out := buf.String(); !strings.Contains(out, "sweep=sw-000001") {
		t.Errorf("text handler output %q missing sweep attribute", out)
	}
	log.Debug("below threshold")
	if strings.Contains(buf.String(), "below threshold") {
		t.Error("info-level logger emitted a debug record")
	}

	buf.Reset()
	log, err = NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hello", KeySweep, "sw-000002")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json handler emitted invalid JSON: %v (%q)", err, buf.String())
	}
	if rec[KeySweep] != "sw-000002" {
		t.Errorf("json record = %v, missing sweep attribute", rec)
	}

	if _, err := NewLogger(&buf, "info", "yaml"); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("NewLogger accepted an unknown level")
	}
}

// TestDiscard: the logger a component gets when none is configured drops
// every record, so an unconfigured daemon logs nothing.
func TestDiscard(t *testing.T) {
	if Discard().Enabled(context.Background(), slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}
}

// TestDisabledTelemetryZeroCost is the telemetry sibling of the obs/hist
// disabled-overhead guards: every nil-object hook must be allocation-free,
// so an uninstrumented binary pays a nil comparison at most.
func TestDisabledTelemetryZeroCost(t *testing.T) {
	var tl *Timeline
	span := Span{Name: StageJob, Start: time.Unix(0, 0), Dur: time.Millisecond}
	checks := map[string]func(){
		"nil Timeline.Add":     func() { tl.Add(span) },
		"nil Timeline.Spans":   func() { _ = tl.Spans() },
		"nil Timeline.Dropped": func() { _ = tl.Dropped() },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
		}
	}
}

func TestRegistryRenderGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("sesa_fleet_leases_granted_total", "Lease batches granted to workers.",
		func() []Sample {
			return []Sample{
				{Labels: [][2]string{{"worker", "rack3-b"}}, Value: 1},
				{Labels: [][2]string{{"worker", "rack3-a"}}, Value: 3},
			}
		})
	r.CounterFunc("sesa_fleet_registrations_total", "Worker registrations accepted.",
		func() []Sample { return []Sample{{Value: 2}} })
	r.GaugeFunc("sesa_serve_queue_depth", "Sweeps waiting in the admission queue.",
		func() []Sample { return []Sample{{Value: 1.5}} })
	r.GaugeFunc("sesa_fleet_workers", "Currently registered fleet workers.",
		func() []Sample { return []Sample{{Value: 2}} })
	r.CounterFunc("sesa_cache_hits_total", "Result-cache hits.",
		func() []Sample { return []Sample{{Value: 7}} })

	want := strings.Join([]string{
		"# HELP sesa_cache_hits_total Result-cache hits.",
		"# TYPE sesa_cache_hits_total counter",
		"sesa_cache_hits_total 7",
		"# HELP sesa_fleet_leases_granted_total Lease batches granted to workers.",
		"# TYPE sesa_fleet_leases_granted_total counter",
		`sesa_fleet_leases_granted_total{worker="rack3-a"} 3`,
		`sesa_fleet_leases_granted_total{worker="rack3-b"} 1`,
		"# HELP sesa_fleet_registrations_total Worker registrations accepted.",
		"# TYPE sesa_fleet_registrations_total counter",
		"sesa_fleet_registrations_total 2",
		"# HELP sesa_fleet_workers Currently registered fleet workers.",
		"# TYPE sesa_fleet_workers gauge",
		"sesa_fleet_workers 2",
		"# HELP sesa_serve_queue_depth Sweeps waiting in the admission queue.",
		"# TYPE sesa_serve_queue_depth gauge",
		"sesa_serve_queue_depth 1.5",
		"",
	}, "\n")
	if got := r.Render(); got != want {
		t.Errorf("Render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("sesa_x_total", "h", func() []Sample {
		return []Sample{{Labels: [][2]string{{"worker", "a\\b\"c\nd"}}, Value: 1}}
	})
	want := `sesa_x_total{worker="a\\b\"c\nd"} 1`
	if got := r.Render(); !strings.Contains(got, want) {
		t.Errorf("Render = %q, want it to contain %q", got, want)
	}
}

func TestTimelineBound(t *testing.T) {
	tl := &Timeline{sweep: "sw-000001", max: 2}
	for i := 0; i < 5; i++ {
		tl.Add(Span{Name: StageJob, Start: time.Unix(int64(i), 0), Dur: time.Second})
	}
	if got := len(tl.Spans()); got != 2 {
		t.Errorf("bounded timeline holds %d spans, want 2", got)
	}
	if got := tl.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 spans dropped") {
		t.Error("Chrome export does not report the dropped count")
	}
}

// TestWriteChromeGolden pins the document a local sweep's timeline
// renders to: the lifecycle on the coordinator's track, and the pool's
// execution window and jobs on worker "local", each job on its own track in
// recording order (here the reverse of index order, as parallel workers
// finish).
func TestWriteChromeGolden(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tl := NewTimeline("sw-000001")
	tl.Add(Span{Name: StageAdmission, Cat: "coordinator", Index: -1,
		Start: base, Dur: 2 * time.Millisecond})
	tl.Add(Span{Name: StageQueue, Cat: "coordinator", Index: -1,
		Start: base.Add(2 * time.Millisecond), Dur: 3 * time.Millisecond})
	tl.Add(Span{Name: StageJob, Cat: "worker", Job: "barnes/x86/seed42", Index: 1,
		Start: base.Add(6 * time.Millisecond), Dur: 15 * time.Millisecond})
	tl.Add(Span{Name: StageJob, Cat: "worker", Job: "radix/370-SLFSoS-key/seed42", Index: 0,
		Start: base.Add(6 * time.Millisecond), Dur: 20 * time.Millisecond})
	tl.Add(Span{Name: StageExecute, Cat: "worker", Index: -1,
		Start: base.Add(5 * time.Millisecond), Dur: 22 * time.Millisecond})
	tl.Add(Span{Name: StageAggregate, Cat: "coordinator", Index: -1,
		Start: base.Add(27 * time.Millisecond), Dur: 300 * time.Microsecond})

	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), new(any)); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 6 spans after process/thread metadata for the coordinator (proc,
	// lifecycle, reports) and worker local (proc, batches, 2 job slots).
	// Timestamps are µs relative to the earliest span (admission).
	const want = `{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"coordinator (sw-000001)"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"sweep lifecycle"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"reports"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"worker local"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"batches"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"job slot 0"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"job slot 1"}},
{"name":"admission","cat":"coordinator","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0,"args":{"sweep":"sw-000001"}},
{"name":"queue","cat":"coordinator","ph":"X","ts":2000,"dur":3000,"pid":0,"tid":0,"args":{"sweep":"sw-000001"}},
{"name":"barnes/x86/seed42","cat":"worker","ph":"X","ts":6000,"dur":15000,"pid":1,"tid":1,"args":{"sweep":"sw-000001","worker":"local","index":1}},
{"name":"radix/370-SLFSoS-key/seed42","cat":"worker","ph":"X","ts":6000,"dur":20000,"pid":1,"tid":2,"args":{"sweep":"sw-000001","worker":"local","index":0}},
{"name":"worker-execute","cat":"worker","ph":"X","ts":5000,"dur":22000,"pid":1,"tid":0,"args":{"sweep":"sw-000001","worker":"local"}},
{"name":"aggregate","cat":"coordinator","ph":"X","ts":27000,"dur":300,"pid":0,"tid":0,"args":{"sweep":"sw-000001"}}
]}
`
	if got := buf.String(); got != want {
		t.Errorf("Chrome export differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteChromeSubMicrosecondDur(t *testing.T) {
	tl := NewTimeline("sw-000001")
	tl.Add(Span{Name: StageQueue, Cat: "coordinator", Index: -1,
		Start: time.Unix(10, 0), Dur: 200 * time.Nanosecond})
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":1`) {
		t.Errorf("sub-µs span not rounded up to 1µs: %s", buf.String())
	}
}

func TestWriteChromeEmptyTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTimeline("sw-000001").WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty timeline export is not valid JSON: %v", err)
	}
	var nilTL *Timeline
	if err := nilTL.WriteChrome(&buf); err == nil {
		t.Error("nil timeline WriteChrome succeeded, want error")
	}
}
