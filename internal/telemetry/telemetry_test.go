package telemetry

import (
	"bytes"
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
	log.Debug("hello", KeyWorker, "rack3-a")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json handler emitted invalid JSON: %v (%q)", err, buf.String())
	}
	if rec[KeyWorker] != "rack3-a" {
		t.Errorf("json record = %v, missing worker attribute", rec)
	}

	if _, err := NewLogger(&buf, "info", "yaml"); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("NewLogger accepted an unknown level")
	}
}

func TestNilBundle(t *testing.T) {
	var tel *T
	if tel.Logger() == nil {
		t.Fatal("nil T returned a nil logger")
	}
	tel.Logger().Info("dropped")       // must not panic
	tel.Component("x").Warn("dropped") // must not panic
	if tel.Registry() != nil {
		t.Error("nil T returned a non-nil registry")
	}
	if tel.Logger().Enabled(nil, slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}
}

// TestDisabledTelemetryZeroCost is the telemetry sibling of the obs/hist
// disabled-overhead guards: every nil-object hook must be allocation-free,
// so an uninstrumented binary pays a nil comparison at most.
func TestDisabledTelemetryZeroCost(t *testing.T) {
	var reg *Registry
	var tl *Timeline
	c := reg.Counter("sesa_x_total", "help")
	span := Span{Name: StageJob, Start: time.Unix(0, 0), Dur: time.Millisecond}
	checks := map[string]func(){
		"nil Counter.Add":      func() { c.Inc() },
		"nil Counter.Add(d)":   func() { c.Add(17) },
		"nil Timeline.Add":     func() { tl.Add(span) },
		"nil Timeline.Spans":   func() { _ = tl.Spans() },
		"nil Timeline.Dropped": func() { _ = tl.Dropped() },
		"nil Registry.Counter": func() { reg.Counter("sesa_z_total", "help").Inc() },
		"nil Registry.Render":  func() { _ = reg.Render() },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
		}
	}
}

func TestRegistryRenderGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sesa_fleet_leases_granted_total", "Lease batches granted to workers.",
		"worker", "rack3-a").Add(3)
	r.Counter("sesa_fleet_leases_granted_total", "Lease batches granted to workers.",
		"worker", "rack3-b").Inc()
	r.Counter("sesa_fleet_registrations_total", "Worker registrations accepted.").Add(2)
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
	r.Counter("sesa_x_total", "h", "worker", "a\\b\"c\nd").Inc()
	want := `sesa_x_total{worker="a\\b\"c\nd"} 1`
	if got := r.Render(); !strings.Contains(got, want) {
		t.Errorf("Render = %q, want it to contain %q", got, want)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sesa_x_total", "h")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := r.Render(); !strings.Contains(got, "sesa_x_total 8000") {
		t.Errorf("concurrent adds lost updates: %q", got)
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

func TestWriteChromeGolden(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tl := NewTimeline("sw-000001")
	tl.Add(Span{Name: StageAdmission, Cat: "coordinator", Index: -1,
		Start: base, Dur: 2 * time.Millisecond})
	tl.Add(Span{Name: StageLease, Cat: "coordinator", Batch: "b-000001", Worker: "wA",
		Attempt: 1, Index: -1, Start: base.Add(5 * time.Millisecond), Dur: 40 * time.Millisecond})
	tl.Add(Span{Name: StageExecute, Cat: "worker", Batch: "b-000001", Worker: "wA",
		Index: -1, Start: base.Add(6 * time.Millisecond), Dur: 30 * time.Millisecond})
	tl.Add(Span{Name: StageJob, Cat: "worker", Batch: "b-000001", Worker: "wA",
		Job: "radix/x86/seed42", Index: 0,
		Start: base.Add(7 * time.Millisecond), Dur: 20 * time.Millisecond})
	tl.Add(Span{Name: StageReport, Cat: "coordinator", Batch: "b-000001", Worker: "wA",
		Index: -1, Start: base.Add(45 * time.Millisecond), Dur: 100 * time.Microsecond})

	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), new(any)); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 5 spans after process/thread metadata for coordinator (proc,
	// lifecycle, reports, batch) and worker wA (proc, batches, 1 job slot).
	// Timestamps are µs relative to the earliest span (admission).
	const want = `{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"coordinator (sw-000001)"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"sweep lifecycle"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"reports"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"batch b-000001"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"worker wA"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"batches"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"job slot 0"}},
{"name":"admission","cat":"coordinator","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0,"args":{"sweep":"sw-000001"}},
{"name":"lease","cat":"coordinator","ph":"X","ts":5000,"dur":40000,"pid":0,"tid":2,"args":{"sweep":"sw-000001","batch":"b-000001","worker":"wA","attempt":1}},
{"name":"worker-execute","cat":"worker","ph":"X","ts":6000,"dur":30000,"pid":1,"tid":0,"args":{"sweep":"sw-000001","batch":"b-000001","worker":"wA"}},
{"name":"radix/x86/seed42","cat":"worker","ph":"X","ts":7000,"dur":20000,"pid":1,"tid":1,"args":{"sweep":"sw-000001","batch":"b-000001","worker":"wA","index":0}},
{"name":"report","cat":"coordinator","ph":"X","ts":45000,"dur":100,"pid":0,"tid":1,"args":{"sweep":"sw-000001","batch":"b-000001","worker":"wA"}}
]}
`
	if got := buf.String(); got != want {
		t.Errorf("Chrome export differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteChromeSubMicrosecondDur(t *testing.T) {
	tl := NewTimeline("sw-000001")
	tl.Add(Span{Name: StageShard, Cat: "coordinator", Index: -1,
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
