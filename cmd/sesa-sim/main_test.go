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
// histogram runs, and its histogram title names the file alone, not the
// -n and -seed a replay ignores.
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
		"== latency distributions: mcf.trace ==\n",
		"\n-- mcf.trace/x86 (merged) --\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "barnes") {
		t.Errorf("replay report names the default benchmark:\n%s", report)
	}
	if strings.Contains(report, "100000 instructions/core") {
		t.Errorf("replay histogram title reports the -n it ignored:\n%s", report)
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

// TestReplayMatchesGeneratedRun: a dumped trace replayed on every machine
// reports what the generated run reports, apart from its label, and the
// same at any -jobs.
func TestReplayMatchesGeneratedRun(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "mcf.trace")
	gen := []string{"-bench", "505.mcf", "-n", "2000", "-model", "all", "-jobs", "1"}
	if err := run(append(gen, "-dump", traceFile), io.Discard); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := run(gen, &want); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-trace", traceFile, "-model", "all", "-jobs", jobs}, &out); err != nil {
			t.Fatal(err)
		}
		got := strings.ReplaceAll(out.String(), "== mcf.trace on ", "== 505.mcf on ")
		if got != want.String() {
			t.Errorf("-jobs %s: replay report differs from the generated run's:\n%s\nwant:\n%s", jobs, got, want.String())
		}
	}
}

// TestReplayServesStatus: a replay is a sweep, so -status-addr serves it
// and leaves the report as it is without the flag.
func TestReplayServesStatus(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "radix.trace")
	if err := run([]string{"-bench", "radix", "-n", "200", "-dump", traceFile}, io.Discard); err != nil {
		t.Fatal(err)
	}
	args := []string{"-trace", traceFile, "-model", "x86,370-SLFSoS-key"}
	var plain, served bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-status-addr", "127.0.0.1:0"), &served); err != nil {
		t.Fatalf("-trace with -status-addr: %v", err)
	}
	if served.String() != plain.String() {
		t.Errorf("-status-addr changed the report:\n%s\nwant:\n%s", served.String(), plain.String())
	}
}

// TestRejectsOutOfRangeN: an -n no trace can have, or a -jobs below one,
// fails before any simulation, with nothing on stdout.
func TestRejectsOutOfRangeN(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-n", "0"},
		{"-n", strconv.Itoa(trace.MaxInstPerCore + 1)},
		{"-jobs", "0"},
		{"-jobs", "-3"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-bench", "radix"}, args...), &out); err == nil {
			t.Errorf("%v: run succeeded, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout, want nothing", args, out.String())
		}
	}
}

// TestRejectsStatusAddrWithReplay: a -dump and a -list run no sweep, so
// -status-addr would serve nothing; each combination fails before any
// simulation, with nothing on stdout. (A -trace replay is a sweep and
// serves it: TestReplayServesStatus.)
func TestRejectsStatusAddrWithReplay(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
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
