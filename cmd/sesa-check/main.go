// Command sesa-check is the ConsistencyChecker of the paper's footnote 1:
// it exhaustively enumerates the outcomes of the litmus suite under the
// operational x86-TSO, store-atomic 370 and SC models, and prints the
// outcomes that x86 admits but a store-atomic machine forbids — the
// observable cost of abandoning store atomicity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sesa"
	"sesa/internal/litmus"
)

func main() {
	testName := flag.String("test", "", "litmus test name or comma-separated list (default: all)")
	alloyDir := flag.String("export-alloy", "", "also write each selected test as a memalloy-style candidate-execution module (<name>.als) into this directory")
	flag.Parse()

	if err := run(os.Stdout, *testName, *alloyDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run checks the selected tests and writes the report to w; with a non-empty
// alloyDir it additionally exports every test as an Alloy module, leaving
// the report itself untouched.
func run(w io.Writer, testName, alloyDir string) error {
	tests, err := litmus.Select(testName)
	if err != nil {
		return err
	}

	if alloyDir != "" {
		if err := os.MkdirAll(alloyDir, 0o755); err != nil {
			return err
		}
	}

	for _, t := range tests {
		if alloyDir != "" {
			mod, err := sesa.ExportAlloy(t.Name, t.Prog)
			if err != nil {
				return err
			}
			path := filepath.Join(alloyDir, t.Name+".als")
			if err := os.WriteFile(path, []byte(mod), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "=== %s — %s\n", t.Name, t.Doc)
		for _, m := range []sesa.CheckerModel{sesa.CheckerSC, sesa.Checker370TSO, sesa.CheckerX86TSO} {
			out := sesa.Enumerate(t.Prog, m)
			fmt.Fprintf(w, "  %-8s %2d outcomes:", m, len(out))
			for _, o := range out.Sorted() {
				fmt.Fprintf(w, "  [%s]", o)
			}
			fmt.Fprintln(w)
		}
		// Cross-validate the two formulations, with no simulator witnesses.
		rep, err := sesa.FuzzCrossValidate(t.Prog, sesa.FuzzOptions{})
		if err != nil {
			return err
		}
		if !rep.Ok() {
			var b strings.Builder
			for _, m := range rep.Mismatches {
				fmt.Fprintf(&b, "\n  %s", m)
			}
			return fmt.Errorf("MISMATCH between the operational and axiomatic formulations on %s:%s", t.Name, b.String())
		}
		fmt.Fprintln(w, "  axiomatic formulation agrees (uniproc + atomicity + ghb)")
		diff := sesa.CompareModels(t.Prog, sesa.CheckerX86TSO, sesa.Checker370TSO)
		if len(diff) == 0 {
			fmt.Fprintln(w, "  store atomicity is not observable in this test")
		} else {
			fmt.Fprintf(w, "  x86-only (store-atomicity violations observable):")
			for _, o := range diff {
				fmt.Fprintf(w, "  [%s]", o)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
