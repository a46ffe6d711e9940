package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
const benchmarkJSON = "../../BENCHMARK.json"

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics the program runs and emits, with the
// same units and directions, and that every name is well formed.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("decode %s: %v", benchmarkJSON, err)
	}

	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !equalStrings(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}

	check := func(section string, got []specMetric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s declares %d metrics, program emits %d", section, len(got), len(defs))
		}
		for i := 0; i < len(got) && i < len(defs); i++ {
			g, d := got[i], defs[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %s %s %s, program emits %s %s %s", section, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", section, g.Name, g.Bound != nil)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound != nil {
			if *m.Bound <= 0 || *m.Bound > 0.25 {
				t.Errorf("%s bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
			maxBound = max(maxBound, *m.Bound)
			if m.Name == "setup_s" {
				setupBound = *m.Bound
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBucketTop checks the CPU-profile bucket rules on pprof -top text.
func TestBucketTop(t *testing.T) {
	top := []byte(`File: sesa-perf
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
        4s 40.00% 40.00%        6s 60.00%  sesa/internal/core.(*Core).issue
        2s 20.00% 60.00%        2s 20.00%  runtime.mallocgc
        1s 10.00% 70.00%        1s 10.00%  sesa/internal/mem.(*Hierarchy).loadLine (inline)
        1s 10.00% 80.00%        1s 10.00%  internal/runtime/atomic.(*Uint32).Load
        1s 10.00% 90.00%        1s 10.00%  sesa/internal/fuzz.Generate
        1s 10.00%   100%        9s 90.00%  sesa/internal/sim.New
         0     0%   100%       10s   100%  main.main
`)
	got, err := bucketTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.core.issue": 60, "cpu.core": 40, "cpu.runtime": 30, "cpu.mem": 10,
		"cpu.other": 10, "cpu.sim": 10, "cpu.sim.new": 90, "cpu.core.retire": 0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	var flat float64
	for _, d := range perLayer {
		if d.unit == "%" && !isStageShare(d.name) {
			flat += got[d.name]
		}
	}
	if flat != 100 {
		t.Errorf("flat buckets sum to %v, want 100", flat)
	}
}

func isStageShare(name string) bool {
	_, ok := stageRoots[name]
	return ok
}
