package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestRejectsTraceBufBelowOne: with -trace-out set, a -trace-buf below 1,
// whose rings would hold no event, fails before any simulation, with
// nothing on stdout and no trace file written.
func TestRejectsTraceBufBelowOne(t *testing.T) {
	for _, buf := range []string{"0", "-1"} {
		path := filepath.Join(t.TempDir(), "neg.json")
		var out bytes.Buffer
		err := run([]string{"-test", "n6", "-model", "370-SLFSoS-key", "-iters", "1",
			"-trace-out", path, "-trace-buf", buf}, &out)
		if err == nil || !strings.Contains(err.Error(), "-trace-buf must be >= 1") {
			t.Errorf("-trace-buf %s: run = %v, want the -trace-buf error", buf, err)
		}
		if out.Len() != 0 {
			t.Errorf("-trace-buf %s: wrote %q to stdout, want nothing", buf, out.String())
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("-trace-buf %s: trace file exists (stat: %v)", buf, err)
		}
	}
}
