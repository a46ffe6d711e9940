package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"sesa/internal/stats"
)

func sampleChars() CharacterizationTable {
	return CharacterizationTable{
		Title: "Table IV (test)",
		Rows: []stats.Characterization{
			{Benchmark: "barnes", Instructions: 1000, LoadsPct: 31.78, ForwardedPct: 18.3,
				GateStallsPct: 5.9, AvgStallCycles: 6.4, ReexecutedPct: 0.19, Cycles: 500, IPC: 2},
			{Benchmark: "x264", Instructions: 2000, LoadsPct: 26.2, ForwardedPct: 3.3,
				GateStallsPct: 1.4, AvgStallCycles: 13.7, ReexecutedPct: 10.2, Cycles: 900, IPC: 2.2},
		},
	}
}

func TestCharacterizationCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleChars().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(recs))
	}
	if recs[1][0] != "barnes" || recs[2][0] != "x264" {
		t.Errorf("benchmark column wrong: %v", recs)
	}
	if recs[1][3] != "18.3000" {
		t.Errorf("forwarded column = %q", recs[1][3])
	}
	if len(recs[0]) != len(recs[1]) {
		t.Error("header and data widths differ")
	}
}

func TestCharacterizationJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleChars().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back CharacterizationTable
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "Table IV (test)" || len(back.Rows) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Rows[0].ForwardedPct != 18.3 {
		t.Errorf("fwd = %f", back.Rows[0].ForwardedPct)
	}
}

func sampleComparison() ComparisonTable {
	return ComparisonTable{
		Title:      "Figure 10 (test)",
		Benchmarks: []string{"a", "b"},
		Models:     []string{"x86", "370-SLFSoS-key"},
		Normalized: map[string][]float64{
			"x86":            {1, 1},
			"370-SLFSoS-key": {1.1, 1.21},
		},
	}
}

func TestComparisonCSVAndGeoMean(t *testing.T) {
	c := sampleComparison()
	gm := c.GeoMeans()
	if math.Abs(gm["370-SLFSoS-key"]-math.Sqrt(1.1*1.21)) > 1e-9 {
		t.Errorf("geomean = %f", gm["370-SLFSoS-key"])
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // header + 2 benchmarks + geomean
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[3][0] != "geomean" {
		t.Errorf("last row = %v", recs[3])
	}
}

func TestComparisonJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleComparison().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "370-SLFSoS-key") {
		t.Error("JSON lost the model names")
	}
}

// TestComparisonText pins the Figure 10 text layout sesa-bench prints.
func TestComparisonText(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleComparison().Write(&buf, Text); err != nil {
		t.Fatal(err)
	}
	want := "Figure 10 (test)\n" +
		"benchmark                      x86  370-SLFSoS-key\n" +
		"a                            1.000           1.100\n" +
		"b                            1.000           1.210\n" +
		"GeoMean                      1.000           1.154\n"
	if buf.String() != want {
		t.Errorf("text =\n%s\nwant\n%s", buf.String(), want)
	}
	if err := sampleComparison().Write(&buf, Format("xml")); err == nil {
		t.Error("xml accepted")
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "csv", "json"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Errorf("%s rejected: %v", ok, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("xml accepted")
	}
}

func TestSweepSummary(t *testing.T) {
	s := SweepSummary{
		Jobs: 10, Failed: 1, Workers: 4,
		WallSeconds: 2.0, SimCycles: 1_000_000, SimInsts: 500_000,
		TraceCacheHits: 8, TraceCacheMisses: 2,
	}
	if got := s.CyclesPerSecond(); got != 500_000 {
		t.Errorf("CyclesPerSecond = %g, want 500000", got)
	}
	if got := s.InstsPerSecond(); got != 250_000 {
		t.Errorf("InstsPerSecond = %g, want 250000", got)
	}
	for _, want := range []string{"10 jobs", "1 failed", "4 workers", "8 hits", "2 misses"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("summary %q missing %q", s.String(), want)
		}
	}

	doc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSummary
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("JSON round trip changed the summary: %+v != %+v", back, s)
	}

	zero := SweepSummary{}
	if zero.CyclesPerSecond() != 0 || zero.InstsPerSecond() != 0 {
		t.Error("zero-wall summary must report zero throughput, not Inf")
	}
}
