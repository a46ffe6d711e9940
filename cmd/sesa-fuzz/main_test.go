package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sesa"
)

// fastOptions cross-validates model legs only (no simulator witnesses), so
// CLI tests stay quick and fully deterministic.
func fastOptions(t *testing.T) options {
	t.Helper()
	b, err := sesa.ParseFuzzBudget("")
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: 1, count: 10, budget: b, jobs: 2}
}

func TestRunByteIdenticalAcrossJobs(t *testing.T) {
	var a, b bytes.Buffer
	o := fastOptions(t)
	o.jobs = 1
	if _, err := run(&a, o); err != nil {
		t.Fatal(err)
	}
	o.jobs = 7
	if _, err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("output differs across -jobs:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunSeedReproducesBatchMember(t *testing.T) {
	var batch bytes.Buffer
	o := fastOptions(t)
	if _, err := run(&batch, o); err != nil {
		t.Fatal(err)
	}
	var solo bytes.Buffer
	o.seed, o.count = 4, 1
	if _, err := run(&solo, o); err != nil {
		t.Fatal(err)
	}
	soloLine := ""
	for _, line := range strings.Split(solo.String(), "\n") {
		if strings.HasPrefix(line, "prog ") {
			soloLine = strings.SplitN(line, "seed=", 2)[1]
		}
	}
	if soloLine == "" {
		t.Fatalf("no prog line in solo output:\n%s", solo.String())
	}
	if !strings.Contains(batch.String(), soloLine) {
		t.Fatalf("batch output lacks the solo run's report %q:\n%s", soloLine, batch.String())
	}
}

// TestParseModels exercises the shared roster parser through the -models
// flag's entry point (the parser itself lives in internal/config).
func TestParseModels(t *testing.T) {
	all, err := sesa.ParseModels("all")
	if err != nil || len(all) != len(sesa.AllModels()) {
		t.Fatalf("all -> %v, %v", all, err)
	}
	none, err := sesa.ParseModels("none")
	if err != nil || none != nil {
		t.Fatalf("none -> %v, %v", none, err)
	}
	two, err := sesa.ParseModels("x86, 370-SLFSoS-key")
	if err != nil || len(two) != 2 || two[0] != sesa.X86 || two[1] != sesa.SLFSoSKey370 {
		t.Fatalf("pair -> %v, %v", two, err)
	}
	_, err = sesa.ParseModels("x86,bogus")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, name := range sesa.ModelNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid model %s", err, name)
		}
	}
}

func TestCorpusReplayAndAlloyExport(t *testing.T) {
	dir := t.TempDir()
	src := "st x, 1    | st y, 1\nld y -> a0 | ld x -> b0\n"
	if err := os.WriteFile(filepath.Join(dir, "sb.litmus"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	alloyDir := t.TempDir()
	var out bytes.Buffer
	o := fastOptions(t)
	o.count = 0
	o.corpus = dir
	o.alloyDir = alloyDir
	failures, err := run(&out, o)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("sb replay failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "corpus sb.litmus") {
		t.Fatalf("missing corpus report line:\n%s", out.String())
	}
	als, err := os.ReadFile(filepath.Join(alloyDir, "sb.als"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(als), "open exec_H[E]") {
		t.Fatalf("alloy export malformed:\n%s", als)
	}
}

func TestCorpusRejectsBadProgram(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.litmus"), []byte("frob q"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := fastOptions(t)
	o.count = 0
	o.corpus = dir
	var out bytes.Buffer
	if _, err := run(&out, o); err == nil || !strings.Contains(err.Error(), "bad.litmus") {
		t.Fatalf("want parse error naming the file, got %v", err)
	}
}

// TestCheckCounts: the counts that would run nothing visible, or a -jobs
// that would quietly run one worker, are rejected before any simulation,
// the rest accepted.
func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		count, jobs, simIters, pressure int
		ok                              bool
	}{
		{"defaults", 20, 2, 3, 3, true},
		{"no programs", 0, 2, 3, 3, true},
		{"one iteration, no pressure", 20, 2, 1, 0, true},
		{"one worker", 20, 1, 3, 3, true},
		{"negative count", -1, 2, 3, 3, false},
		{"zero jobs", 20, 0, 3, 3, false},
		{"negative jobs", 20, -3, 3, 3, false},
		{"zero sim-iters", 20, 2, 0, 3, false},
		{"negative sim-iters", 20, 2, -1, 3, false},
		{"negative pressure", 20, 2, 3, -1, false},
	} {
		err := checkCounts(options{count: tc.count, jobs: tc.jobs, simIters: tc.simIters, pressure: tc.pressure})
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkCounts = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
