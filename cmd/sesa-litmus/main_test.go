package main

import "testing"

// TestCheckCounts: an iteration count below 1 and a negative pressure are
// rejected before any simulation, the rest accepted.
func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		name            string
		iters, pressure int
		ok              bool
	}{
		{"defaults", 20, 3, true},
		{"one iteration, no pressure", 1, 0, true},
		{"zero iterations", 0, 3, false},
		{"negative iterations", -1, 3, false},
		{"negative pressure", 20, -1, false},
	} {
		if err := checkCounts(tc.iters, tc.pressure); (err == nil) != tc.ok {
			t.Errorf("%s: checkCounts(%d, %d) = %v, want ok=%v", tc.name, tc.iters, tc.pressure, err, tc.ok)
		}
	}
}
