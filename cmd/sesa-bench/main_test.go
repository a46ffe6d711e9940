package main

import "testing"

// TestCheckSuite: -suite accepts exactly the three values forSuites acts
// on; anything else would run nothing and exit 0.
func TestCheckSuite(t *testing.T) {
	for _, tc := range []struct {
		suite string
		ok    bool
	}{
		{"parallel", true},
		{"sequential", true},
		{"both", true},
		{"par", false},
		{"nonsense", false},
		{"", false},
		{"Both", false},
		{"parallel,sequential", false},
	} {
		if err := checkSuite(tc.suite); (err == nil) != tc.ok {
			t.Errorf("checkSuite(%q) = %v, want ok=%v", tc.suite, err, tc.ok)
		}
	}
}
