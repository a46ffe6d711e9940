package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// CPU-profile bucket rules. Shares are percentages of all samples in the
// profile, read from the flat% and cum% columns of `go tool pprof -top`.
//
//   - cpu.core.issue, .retire, .drainSB, .dispatch: cumulative share of the
//     stage's root method, (*Core).issue and so on: the stage plus every
//     mem, sched and noc call it makes. They overlap cpu.mem and the rest.
//   - cpu.core.snoop: cumulative share of (*Core).OnLineRemoved, the load
//     queue snoop and the squashes it triggers.
//   - cpu.sim.new: cumulative share of sim.New, machine construction,
//     whose cost lands in the runtime's allocator when read flat.
//   - cpu.core, cpu.predictor, cpu.mem, cpu.sched, cpu.noc, cpu.sim,
//     cpu.trace, cpu.checker, cpu.axiomatic: flat share of every function
//     of the package sesa/internal/<name>.
//   - cpu.runtime: flat share of runtime, runtime/... and internal/runtime/...:
//     allocation, garbage collection and scheduling.
//   - cpu.other: every other function, so the flat buckets sum to 100: fuzz,
//     litmus, isa, stats, config, runner, the benchmark's own replica and
//     the rest of the standard library.
var (
	stageRoots = map[string]string{
		"cpu.core.issue":    "sesa/internal/core.(*Core).issue",
		"cpu.core.retire":   "sesa/internal/core.(*Core).retire",
		"cpu.core.drainSB":  "sesa/internal/core.(*Core).drainSB",
		"cpu.core.dispatch": "sesa/internal/core.(*Core).dispatch",
		"cpu.core.snoop":    "sesa/internal/core.(*Core).OnLineRemoved",
		"cpu.sim.new":       "sesa/internal/sim.New",
	}
	flatPackages = []string{"core", "predictor", "mem", "sched", "noc", "sim", "trace", "checker", "axiomatic"}
)

// profileShares buckets a CPU profile of the given executable.
func profileShares(exe, profile string) (metricSet, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return bucketTop(out)
}

// bucketTop applies the bucket rules to `pprof -top` text.
func bucketTop(top []byte) (metricSet, error) {
	got := metricSet{"cpu.runtime": 0, "cpu.other": 0}
	for name := range stageRoots {
		got[name] = 0
	}
	for _, pkg := range flatPackages {
		got["cpu."+pkg] = 0
	}
	rows, header := 0, false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := parsePct(f[1])
		cum, err2 := parsePct(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof row %q: bad percentage", sc.Text())
		}
		rows++
		fn := f[5] // a trailing "(inline)" marker is its own field
		for metric, root := range stageRoots {
			if fn == root {
				got[metric] += cum
			}
		}
		got[flatBucket(fn)] += flat
	}
	if !header || rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no profile rows")
	}
	return got, nil
}

// flatBucket names the flat bucket of a profiled function.
func flatBucket(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "cpu.runtime"
	case strings.HasPrefix(pkg, "sesa/internal/"):
		name := strings.TrimPrefix(pkg, "sesa/internal/")
		for _, p := range flatPackages {
			if name == p {
				return "cpu." + p
			}
		}
	}
	return "cpu.other"
}

func parsePct(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
}
