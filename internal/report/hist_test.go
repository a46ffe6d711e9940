package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sesa/internal/hist"
)

func testSet() *hist.Set {
	s := hist.NewSet(2)
	for i := uint64(1); i <= 100; i++ {
		s.Core(0).Observe(hist.LoadL1, i)
	}
	s.Core(1).Observe(hist.GateClosed, 40)
	s.Net().Observe(hist.NoCControl, 7)
	return s
}

func TestHistReportText(t *testing.T) {
	rep := HistReport{Title: "unit", Runs: []HistRun{NewHistRun("run0", testSet())}}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== unit ==",
		"-- run0 (merged) --",
		"-- run0 core 0 --",
		"-- run0 core 1 --",
		"load-l1",
		"gate-closed",
		"noc-control",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// The interconnect collector appears only in the merged table — its
	// messages are not attributable to a core.
	core0 := out[strings.Index(out, "core 0"):]
	if strings.Contains(core0, "noc-control") {
		t.Error("noc-control leaked into a per-core table")
	}
}

func TestHistReportJSON(t *testing.T) {
	rep := HistReport{Title: "unit", Runs: []HistRun{NewHistRun("run0", testSet())}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title string `json:"title"`
		Runs  []struct {
			Name   string                  `json:"name"`
			Merged map[string]hist.Summary `json:"merged"`
			Cores  []map[string]hist.Summary
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Title != "unit" || len(doc.Runs) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	r := doc.Runs[0]
	if r.Name != "run0" || len(r.Cores) != 2 {
		t.Fatalf("run = %+v", r)
	}
	l1 := r.Merged["load-l1"]
	if l1.Count != 100 || l1.P50 != 50 || l1.Max != 100 {
		t.Errorf("load-l1 summary = %+v", l1)
	}
	if r.Merged["noc-control"].Count != 1 {
		t.Errorf("noc-control missing from merged: %+v", r.Merged)
	}
}

func TestHistReportEmptyRun(t *testing.T) {
	rep := HistReport{Runs: []HistRun{NewHistRun("empty", hist.NewSet(1))}}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no samples)") {
		t.Errorf("empty run not marked: %q", buf.String())
	}
}

func TestHistReportBadFormat(t *testing.T) {
	rep := HistReport{}
	if err := rep.Write(&bytes.Buffer{}, CSV); err == nil {
		t.Error("csv accepted for histogram report")
	}
}
