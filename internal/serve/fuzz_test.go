package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sesa/internal/config"
	"sesa/internal/trace"
)

// FuzzSweepRequest drives the POST /v1/sweeps decoder with arbitrary
// bodies. The decoder must never panic; every body it accepts is one JSON
// value (json.Unmarshal takes it too) with at least one job, each with a
// registered profile and model and an instruction count inside the trace
// bound; and an accepted request, re-encoded and decoded again, resolves to
// the same content addresses. No simulation runs.
func FuzzSweepRequest(f *testing.F) {
	smoke, err := os.ReadFile("../../testdata/serve_sweep_request.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, body := range badSweepBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, jobs, err := decodeSweep(bytes.NewReader(body))
		if err != nil {
			return
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("accepted a body that is not one JSON value: %v\n%q", err, body)
		}
		if len(jobs) == 0 || len(jobs) != len(req.Jobs) {
			t.Fatalf("accepted %d jobs from a request listing %d", len(jobs), len(req.Jobs))
		}
		keys := make([]string, len(jobs))
		for i, j := range jobs {
			if _, ok := trace.Lookup(j.Profile.Name); !ok {
				t.Errorf("job %d: accepted unknown profile %q", i, j.Profile.Name)
			}
			if _, err := config.ParseModel(j.Model.String()); err != nil {
				t.Errorf("job %d: accepted unknown model: %v", i, err)
			}
			if err := trace.CheckInstPerCore(j.InstPerCore); err != nil {
				t.Errorf("job %d: accepted %v", i, err)
			}
			keys[i] = jobKey(j)
		}

		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		_, jobs2, err := decodeSweep(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, again)
		}
		if len(jobs2) != len(keys) {
			t.Fatalf("re-encoded request resolves %d jobs, want %d", len(jobs2), len(keys))
		}
		for i, j := range jobs2 {
			if k := jobKey(j); k != keys[i] {
				t.Errorf("job %d: content address changed across re-encoding\n%s", i, again)
			}
		}
	})
}
