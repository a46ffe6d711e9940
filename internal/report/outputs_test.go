package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sesa/internal/hist"
	"sesa/internal/obs"
)

// parseOutputs registers the traced flag group on a fresh flag set and
// parses args into it.
func parseOutputs(t *testing.T, args ...string) *Outputs {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := NewOutputs(fs, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// tracedRun is a one-core run with two recorded events and one metrics
// sample.
func tracedRun(t *testing.T, o *Outputs) {
	t.Helper()
	opts := o.TraceOptions()
	if opts == nil {
		t.Fatal("no trace options for a traced invocation")
	}
	tr := obs.New(1, *opts)
	if c := tr.Core(0); c != nil {
		c.Record(obs.Event{Cycle: 3, Kind: obs.KDispatch, Seq: 1})
		c.Record(obs.Event{Cycle: 9, Kind: obs.KRetire, Seq: 1})
	}
	if m := tr.Metrics(); m != nil {
		m.Sample(10, []obs.CoreSnapshot{{Retired: 4, ROBOcc: 2}})
	}
	o.Add("unit/x86", tr, nil)
}

func TestOutputsCheckRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-hist-format", "yaml"},
		{"-hist-format", "csv"},
		{"-metrics-interval", "100"},
		{"-metrics-out", "m.csv"},
		{"-trace-out", "t.json", "-trace-buf", "0"},
		{"-trace-out", "t.kanata", "-trace-buf", "-1"},
	} {
		if err := parseOutputs(t, args...).Check(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-hist-format", "json"},
		{"-hist-out", "h.txt"},
		{"-metrics-interval", "100", "-metrics-out", "m.csv"},
		{"-trace-out", "t.json"},
		{"-trace-out", "t.json", "-trace-buf", "1"},
		{"-trace-buf", "0"}, // no trace to record
	} {
		if err := parseOutputs(t, args...).Check(); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
}

func TestOutputsTraceFormatFollowsFileName(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		file  string
		write func(io.Writer, []obs.Run) error
	}{
		{"trace.kanata", obs.WriteKanata},
		{"trace.json", obs.WriteChrome},
		{"trace.out", obs.WriteChrome},
	} {
		path := filepath.Join(dir, c.file)
		o := parseOutputs(t, "-trace-out", path)
		tracedRun(t, o)
		if err := o.Write(io.Discard, io.Discard, ""); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := c.write(&want, o.Traces); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: wrong trace format:\n%s", c.file, got)
		}
	}
}

func TestOutputsMetricsFormatFollowsFileName(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"metrics.json", "metrics.csv"} {
		path := filepath.Join(dir, file)
		o := parseOutputs(t, "-metrics-interval", "10", "-metrics-out", path)
		tracedRun(t, o)
		if err := o.Write(io.Discard, io.Discard, ""); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if isJSON := json.Valid(got); isJSON != strings.HasSuffix(file, ".json") {
			t.Errorf("%s: JSON = %v:\n%s", file, isJSON, got)
		}
		if !bytes.Contains(got, []byte("unit/x86")) {
			t.Errorf("%s: run name missing:\n%s", file, got)
		}
	}
}

func TestOutputsHistTextToStdout(t *testing.T) {
	o := parseOutputs(t, "-hist-out", "-", "-hist-format", "text")
	opts := o.TraceOptions()
	if opts == nil || *opts != (obs.Options{Hists: true}) {
		t.Fatalf("histogram-only flags gave tracer options %+v; want histograms and nothing else", opts)
	}
	tr := obs.New(1, *opts)
	tr.Core(0).Observe(hist.LoadL1, 4)
	o.Add("unit/x86", tr, tr.Hists())
	var stdout, log bytes.Buffer
	if err := o.Write(&stdout, &log, "unit"); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := (HistReport{Title: "unit", Runs: o.Hists}).WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.String() || log.Len() != 0 {
		t.Errorf("stdout = %q, log = %q; want stdout %q", stdout.String(), log.String(), want.String())
	}
}
