package main

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sesa/internal/trace"
)

// TestReplayLabelsRunsWithTraceFileName: a run replayed from a -trace file
// is named after that file, not after the default -bench, in the report
// header, the trace's process names, the metrics run column and the
// histogram runs.
func TestReplayLabelsRunsWithTraceFileName(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "mcf.trace")
	if err := run([]string{"-bench", "505.mcf", "-n", "2000", "-dump", traceFile}, io.Discard); err != nil {
		t.Fatal(err)
	}
	chrome, metrics := filepath.Join(dir, "replay.json"), filepath.Join(dir, "replay.csv")
	var out bytes.Buffer
	if err := run([]string{"-trace", traceFile, "-model", "x86",
		"-trace-out", chrome, "-metrics-interval", "500", "-metrics-out", metrics,
		"-hist-format", "text"}, &out); err != nil {
		t.Fatal(err)
	}

	report := out.String()
	for _, want := range []string{
		"== mcf.trace on x86\n",
		"== latency distributions: mcf.trace, ",
		"\n-- mcf.trace/x86 (merged) --\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "barnes") {
		t.Errorf("replay report names the default benchmark:\n%s", report)
	}

	trace, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte(`"name":"process_name","args":{"name":"mcf.trace/x86"}`)) {
		t.Error("trace process is not named mcf.trace/x86")
	}

	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("metrics have %d rows, want samples", len(rows))
	}
	for _, row := range rows[1:] {
		if row[0] != "mcf.trace/x86" {
			t.Fatalf("metrics run column = %q, want mcf.trace/x86", row[0])
		}
	}
}

// TestRejectsOutOfRangeN: an -n no trace can have fails before any
// simulation, with nothing on stdout.
func TestRejectsOutOfRangeN(t *testing.T) {
	for _, n := range []string{"-1", "0", strconv.Itoa(trace.MaxInstPerCore + 1)} {
		var out bytes.Buffer
		if err := run([]string{"-bench", "radix", "-n", n}, &out); err == nil {
			t.Errorf("-n %s: run succeeded, want an error", n)
		}
		if out.Len() != 0 {
			t.Errorf("-n %s: wrote %q to stdout, want nothing", n, out.String())
		}
	}
}

// TestRejectsStatusAddrWithReplay: a -trace replay, a -dump and a -list run
// no sweep, so -status-addr would serve nothing; each combination fails
// before any simulation, with nothing on stdout.
func TestRejectsStatusAddrWithReplay(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "radix.trace")
	if err := run([]string{"-bench", "radix", "-n", "200", "-dump", traceFile}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-trace", traceFile, "-model", "x86"},
		{"-bench", "radix", "-n", "200", "-dump", filepath.Join(dir, "again.trace")},
		{"-list"},
	} {
		var out bytes.Buffer
		err := run(append(args, "-status-addr", "127.0.0.1:0"), &out)
		if err == nil || !strings.Contains(err.Error(), "-status-addr") {
			t.Errorf("%v: run = %v, want an error naming -status-addr", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout, want nothing", args, out.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "again.trace")); !os.IsNotExist(err) {
		t.Errorf("-dump with -status-addr wrote its trace file (stat: %v)", err)
	}
}
