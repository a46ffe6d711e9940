// Command sesa-fuzz is the seeded litmus fuzzer with three-way
// cross-validation: it generates deterministic random litmus programs and
// checks each one on three independent engines — the timing simulator's
// witness search, the exhaustive operational checker and the axiomatic
// enumerator. A simulator-witnessed outcome the bounding operational model
// forbids, or any operational/axiomatic disagreement, is a failure: the
// program is printed in ConsistencyChecker text together with a minimized
// repro and the one-line command that regenerates it.
//
// Usage:
//
//	sesa-fuzz [-seed S] [-count N] [-budget threads=3,ops=4,addrs=2,fences=1,rmws=1]
//	          [-models all|x86,370-SLFSoS-key,...] [-jobs N]
//	          [-sim-iters N] [-pressure N] [-small=true|false]
//	          [-corpus dir] [-repro-dir dir] [-export-alloy dir] [-list-models]
//
// Program i of a run uses generator seed S+i, so any program of a large run
// is reproduced alone by `sesa-fuzz -seed <its seed> -count 1` with the same
// budget. Output is byte-identical across -jobs values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"sesa"
)

type options struct {
	seed     uint64
	count    int
	budget   sesa.FuzzBudget
	models   []sesa.Model
	jobs     int
	simIters int
	pressure int
	small    bool
	corpus   string
	reproDir string
	alloyDir string
	simSeed  uint64
}

func main() {
	seed := flag.Uint64("seed", 1, "base generator seed; program i uses seed+i")
	count := flag.Int("count", 20, "number of programs to generate and cross-validate")
	budgetSpec := flag.String("budget", "", "program shape budget, e.g. threads=3,ops=4,addrs=2,fences=1,rmws=1 (omitted keys keep defaults)")
	modelsSpec := flag.String("models", "all", "comma-separated machine models to witness-run on the simulator, or all, or none")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel cross-validation workers (output is identical for any value)")
	simIters := flag.Int("sim-iters", 3, "simulator iterations per (model, variant, config) witness cell")
	pressure := flag.Int("pressure", 3, "store-buffer-pressure stores per thread in the pressure variant (0 disables the variant)")
	small := flag.Bool("small", true, "also witness-run every model on the tiny-cache configuration")
	simSeed := flag.Uint64("sim-seed", 1, "base seed for the witness search's timing exploration")
	corpus := flag.String("corpus", "", "replay every *.litmus file in this directory before generating")
	reproDir := flag.String("repro-dir", "", "write failing programs (full + minimized ConsistencyChecker text) into this directory")
	alloyDir := flag.String("export-alloy", "", "write a memalloy-style candidate-execution module per program into this directory")
	listModels := flag.Bool("list-models", false, "print the valid machine-model names and exit")
	flag.Parse()

	if *listModels {
		fmt.Print(sesa.ListModels())
		return
	}

	opt := options{
		seed: *seed, count: *count, jobs: *jobs,
		simIters: *simIters, pressure: *pressure, small: *small,
		simSeed: *simSeed, corpus: *corpus, reproDir: *reproDir, alloyDir: *alloyDir,
	}
	var err error
	if opt.budget, err = sesa.ParseFuzzBudget(*budgetSpec); err != nil {
		fatal(err)
	}
	if opt.models, err = sesa.ParseModels(*modelsSpec); err != nil {
		fatal(err)
	}
	if err := checkCounts(opt); err != nil {
		fatal(err)
	}

	failures, err := run(os.Stdout, opt)
	if err != nil {
		fatal(err)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// checkCounts rejects the counts that would silently do nothing or
// something else: a negative -count, a -jobs below 1, which would run one
// worker, a -sim-iters below 1, which would witness nothing on the machines
// -models selects (-models none is how to skip the witness leg), and a
// negative -pressure, which would act as 0.
func checkCounts(opt options) error {
	switch {
	case opt.count < 0:
		return fmt.Errorf("-count must be >= 0")
	case opt.jobs < 1:
		return fmt.Errorf("-jobs must be >= 1")
	case opt.simIters < 1:
		return fmt.Errorf("-sim-iters must be >= 1")
	case opt.pressure < 0:
		return fmt.Errorf("-pressure must be >= 0")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// run replays the corpus (if any), fuzzes count programs, and reports; it
// returns the number of failing programs.
func run(w io.Writer, opt options) (failures int, err error) {
	fopt := sesa.FuzzOptions{
		Models:      opt.models,
		SimIters:    opt.simIters,
		Pressure:    opt.pressure,
		SmallConfig: opt.small,
		SimSeed:     opt.simSeed,
	}

	interesting := 0
	if opt.corpus != "" {
		n, fail, err := replayCorpus(w, opt, fopt)
		if err != nil {
			return 0, err
		}
		failures += fail
		fmt.Fprintf(w, "corpus: %d programs, %d failing\n", n, fail)
	}

	if opt.count > 0 {
		// The worker count is deliberately absent: output is byte-identical
		// across -jobs values, and CI pins that with cmp.
		fmt.Fprintf(w, "fuzz: seed=%d count=%d budget=%s models=%s\n",
			opt.seed, opt.count, opt.budget, modelList(opt.models))
		reports := sesa.FuzzMany(opt.seed, opt.count, opt.budget, fopt, opt.jobs)
		for _, pr := range reports {
			if pr.Err != nil {
				return 0, fmt.Errorf("seed %d: %w", pr.Seed, pr.Err)
			}
			rep := pr.Rep
			mark := "ok"
			if !rep.Ok() {
				mark = "FAIL"
			}
			tag := ""
			if rep.Interesting {
				tag = " interesting"
				interesting++
			}
			fmt.Fprintf(w, "prog %4d seed=%-6d sc=%d 370=%d x86=%d witnessed=%d%s %s\n",
				pr.Index, pr.Seed, rep.OpCount[sesa.CheckerSC], rep.OpCount[sesa.Checker370TSO],
				rep.OpCount[sesa.CheckerX86TSO], rep.Witnessed, tag, mark)
			if opt.alloyDir != "" {
				name := fmt.Sprintf("seed%d", pr.Seed)
				if err := writeAlloy(opt.alloyDir, name, rep.Prog); err != nil {
					return 0, err
				}
			}
			if !rep.Ok() {
				failures++
				if err := reportFailure(w, opt, fopt, pr); err != nil {
					return 0, err
				}
			}
		}
	}

	fmt.Fprintf(w, "summary: %d failing, %d interesting\n", failures, interesting)
	return failures, nil
}

// replayCorpus cross-validates every *.litmus file in the corpus directory,
// in sorted name order.
func replayCorpus(w io.Writer, opt options, fopt sesa.FuzzOptions) (n, failures int, err error) {
	entries, err := os.ReadDir(opt.corpus)
	if err != nil {
		return 0, 0, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".litmus") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(opt.corpus, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, err
		}
		p, err := sesa.ParseLitmusText(string(src))
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		rep, err := sesa.FuzzCrossValidate(p, fopt)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		n++
		mark := "ok"
		if !rep.Ok() {
			mark = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "corpus %-30s sc=%d 370=%d x86=%d witnessed=%d %s\n",
			name, rep.OpCount[sesa.CheckerSC], rep.OpCount[sesa.Checker370TSO],
			rep.OpCount[sesa.CheckerX86TSO], rep.Witnessed, mark)
		if opt.alloyDir != "" {
			base := strings.TrimSuffix(name, ".litmus")
			if err := writeAlloy(opt.alloyDir, base, p); err != nil {
				return 0, 0, err
			}
		}
		if !rep.Ok() {
			for _, m := range rep.Mismatches {
				fmt.Fprintf(w, "  %s\n", m)
			}
			text, rerr := sesa.RenderLitmusText(p)
			if rerr == nil {
				fmt.Fprintf(w, "program:\n%s", indent(text))
			}
		}
	}
	return n, failures, nil
}

// reportFailure prints everything needed to chase one failing generated
// program: the mismatches, the full program, a minimized repro and the
// one-line command that regenerates it — and optionally writes both texts
// into -repro-dir.
func reportFailure(w io.Writer, opt options, fopt sesa.FuzzOptions, pr sesa.FuzzProgramReport) error {
	rep := pr.Rep
	fmt.Fprintf(w, "FAIL seed=%d: %d mismatches\n", pr.Seed, len(rep.Mismatches))
	for _, m := range rep.Mismatches {
		fmt.Fprintf(w, "  %s\n", m)
	}
	text, err := sesa.RenderLitmusText(rep.Prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "program:\n%s", indent(text))

	stillFailing := func(q sesa.CheckerProgram) bool {
		r, err := sesa.FuzzCrossValidate(q, fopt)
		return err == nil && !r.Ok()
	}
	min := sesa.MinimizeLitmus(rep.Prog, stillFailing)
	minText, err := sesa.RenderLitmusText(min)
	if err != nil {
		return err
	}
	if minText != text {
		fmt.Fprintf(w, "minimized:\n%s", indent(minText))
	}
	fmt.Fprintf(w, "reproduce: sesa-fuzz -seed %d -count 1 -budget %s -models %s -sim-iters %d -pressure %d -small=%v -sim-seed %d\n",
		pr.Seed, opt.budget, modelList(opt.models), opt.simIters, opt.pressure, opt.small, opt.simSeed)

	if opt.reproDir != "" {
		if err := os.MkdirAll(opt.reproDir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(opt.reproDir, fmt.Sprintf("seed%d", pr.Seed))
		if err := os.WriteFile(base+".litmus", []byte(text), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+".min.litmus", []byte(minText), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeAlloy exports one program as an Alloy candidate-execution module.
func writeAlloy(dir, name string, p sesa.CheckerProgram) error {
	mod, err := sesa.ExportAlloy(name, p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".als"), []byte(mod), 0o644)
}

// modelList renders the -models value that selects exactly these models.
func modelList(models []sesa.Model) string {
	if len(models) == 0 {
		return "none"
	}
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.String()
	}
	return strings.Join(names, ",")
}

// indent prefixes every line with two spaces, keeping the column layout.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
