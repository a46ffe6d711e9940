// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding result on the
// simulated machine and reports the headline quantities as custom metrics,
// so `go test -bench .` reproduces the whole evaluation at reduced scale
// (cmd/sesa-bench runs the same experiments at arbitrary scale).
package sesa_test

import (
	"fmt"
	"testing"

	"sesa"
)

const (
	benchInsts = 8_000 // instructions per core for the workload benches
	benchSeed  = 42
)

// suiteJobs builds the (profile × model) sweep grid for the suite in
// row-major order.
func suiteJobs(s sesa.Suite, insts int) ([]sesa.Profile, []sesa.SweepJob) {
	profiles := sesa.ParallelProfiles()
	if s == sesa.SequentialSuite {
		profiles = sesa.SequentialProfiles()
	}
	var jobs []sesa.SweepJob
	for _, p := range profiles {
		for _, model := range sesa.AllModels() {
			jobs = append(jobs, sesa.SweepJob{Profile: p, Model: model, InstPerCore: insts, Seed: benchSeed})
		}
	}
	return profiles, jobs
}

// runSuite executes every profile of the suite under all five models — fanned
// across GOMAXPROCS workers over one shared set of cached traces — and
// returns normalized execution times and characterizations per model.
func runSuite(b *testing.B, s sesa.Suite, insts int) (norm map[string][]float64, chars map[string][]sesa.Characterization) {
	b.Helper()
	profiles, jobs := suiteJobs(s, insts)
	results, _ := sesa.RunSweep(jobs, 0)
	norm = make(map[string][]float64)
	chars = make(map[string][]sesa.Characterization)
	models := sesa.AllModels()
	for i := range profiles {
		var base uint64
		for j, model := range models {
			res := results[i*len(models)+j]
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			ch := res.Char
			if model == sesa.X86 {
				base = ch.Cycles
			}
			norm[model.String()] = append(norm[model.String()], float64(ch.Cycles)/float64(base))
			chars[model.String()] = append(chars[model.String()], ch)
		}
	}
	return norm, chars
}

// BenchmarkFig1MP: the mp litmus test (Figure 1). The metric reports
// whether the forbidden outcome was ever witnessed (must stay 0).
func BenchmarkFig1MP(b *testing.B) { litmusBench(b, "mp") }

// BenchmarkFig2N6: the n6 litmus test (Figure 2): witnessed on x86, never
// on the store-atomic machines.
func BenchmarkFig2N6(b *testing.B) { litmusBench(b, "n6") }

// BenchmarkFig3IRIW: independent reads of independent writes (Figure 3).
func BenchmarkFig3IRIW(b *testing.B) { litmusBench(b, "iriw") }

// BenchmarkFig4Outcomes: the four observer outcomes (Figure 4).
func BenchmarkFig4Outcomes(b *testing.B) {
	t, err := sesa.GetLitmus("fig4")
	if err != nil {
		b.Fatal(err)
	}
	var n int
	for i := 0; i < b.N; i++ {
		n = len(sesa.Enumerate(t.Prog, sesa.CheckerX86TSO))
	}
	b.ReportMetric(float64(n), "outcomes")
	if n != 4 {
		b.Fatalf("fig4 outcomes = %d, want 4", n)
	}
}

// BenchmarkTable2Fig5Outcomes: Table II — exactly 3 outcomes under the
// store-atomic model, 4 under x86 (the extra one is the disagreement).
func BenchmarkTable2Fig5Outcomes(b *testing.B) {
	t, err := sesa.GetLitmus("fig5")
	if err != nil {
		b.Fatal(err)
	}
	var nx, na int
	for i := 0; i < b.N; i++ {
		nx = len(sesa.Enumerate(t.Prog, sesa.CheckerX86TSO))
		na = len(sesa.Enumerate(t.Prog, sesa.Checker370TSO))
	}
	b.ReportMetric(float64(nx), "x86-outcomes")
	b.ReportMetric(float64(na), "370-outcomes")
	if nx != 4 || na != 3 {
		b.Fatalf("fig5 outcomes x86=%d 370=%d, want 4 and 3", nx, na)
	}
	litmusBench(b, "fig5")
}

func litmusBench(b *testing.B, name string) {
	b.Helper()
	t, err := sesa.GetLitmus(name)
	if err != nil {
		b.Fatal(err)
	}
	pressured := sesa.WithSBPressure(t, 3)
	var x86Hits, atomicHits int
	for i := 0; i < b.N; i++ {
		x86Hits, atomicHits = 0, 0
		rx, err := sesa.RunLitmus(pressured, sesa.X86, 8, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if rx.Observed(t.Interesting) {
			x86Hits++
		}
		ra, err := sesa.RunLitmus(pressured, sesa.SLFSoSKey370, 8, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if ra.Observed(t.Interesting) {
			atomicHits++
		}
	}
	b.ReportMetric(float64(x86Hits), "x86-witnessed")
	b.ReportMetric(float64(atomicHits), "370key-witnessed")
	if t.Allowed(sesa.Checker370TSO).Contains(t.Interesting) {
		return // common outcome: either machine may see it
	}
	if atomicHits != 0 {
		b.Fatalf("%s: store-atomic machine witnessed the forbidden outcome", name)
	}
}

// BenchmarkTable4Parallel regenerates the top half of Table IV: the
// characterization of the 25 SPLASH-3/PARSEC workloads under 370-SLFSoS-key.
func BenchmarkTable4Parallel(b *testing.B) { table4(b, sesa.ParallelSuite) }

// BenchmarkTable4Sequential regenerates the bottom half of Table IV: the 36
// SPECrate 2017 workloads.
func BenchmarkTable4Sequential(b *testing.B) { table4(b, sesa.SequentialSuite) }

func table4(b *testing.B, s sesa.Suite) {
	profiles := sesa.ParallelProfiles()
	if s == sesa.SequentialSuite {
		profiles = sesa.SequentialProfiles()
	}
	jobs := make([]sesa.SweepJob, len(profiles))
	for i, p := range profiles {
		jobs[i] = sesa.SweepJob{Profile: p, Model: sesa.SLFSoSKey370, InstPerCore: benchInsts, Seed: benchSeed}
	}
	var fwd, gate, stallCyc, reexec []float64
	for i := 0; i < b.N; i++ {
		fwd, gate, stallCyc, reexec = nil, nil, nil, nil
		results, _ := sesa.RunSweep(jobs, 0)
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			ch := res.Char
			fwd = append(fwd, ch.ForwardedPct)
			gate = append(gate, ch.GateStallsPct)
			if ch.GateStallsPct > 0 {
				stallCyc = append(stallCyc, ch.AvgStallCycles)
			}
			reexec = append(reexec, ch.ReexecutedPct)
		}
	}
	b.ReportMetric(sesa.Mean(fwd), "fwd-%")
	b.ReportMetric(sesa.Mean(gate), "gate-stall-%")
	b.ReportMetric(sesa.Mean(stallCyc), "stall-cyc")
	b.ReportMetric(sesa.Mean(reexec), "reexec-%")
}

// BenchmarkFig9StallsParallel regenerates Figure 9 (top): dispatch-stall
// percentages per model over the parallel suite.
func BenchmarkFig9StallsParallel(b *testing.B) { fig9(b, sesa.ParallelSuite) }

// BenchmarkFig9StallsSequential regenerates Figure 9 (bottom).
func BenchmarkFig9StallsSequential(b *testing.B) { fig9(b, sesa.SequentialSuite) }

func fig9(b *testing.B, s sesa.Suite) {
	var chars map[string][]sesa.Characterization
	for i := 0; i < b.N; i++ {
		_, chars = runSuite(b, s, benchInsts)
	}
	for _, m := range sesa.AllModels() {
		var tot []float64
		for _, ch := range chars[m.String()] {
			tot = append(tot, ch.TotalStallPct)
		}
		b.ReportMetric(sesa.Mean(tot), fmt.Sprintf("stall%%-%s", m))
	}
}

// BenchmarkFig10ExecTimeParallel regenerates Figure 10 (top): execution
// time normalized to x86, per model, over the parallel suite. The paper's
// geomeans are 1.27 (NoSpec), 1.07 (SLFSpec), 1.05 (SLFSoS), 1.025
// (SLFSoS-key).
func BenchmarkFig10ExecTimeParallel(b *testing.B) { fig10(b, sesa.ParallelSuite) }

// BenchmarkFig10ExecTimeSequential regenerates Figure 10 (bottom); paper
// geomeans 1.23, 1.14, 1.12, 1.027.
func BenchmarkFig10ExecTimeSequential(b *testing.B) { fig10(b, sesa.SequentialSuite) }

func fig10(b *testing.B, s sesa.Suite) {
	var norm map[string][]float64
	for i := 0; i < b.N; i++ {
		norm, _ = runSuite(b, s, benchInsts)
	}
	for _, m := range sesa.AllModels() {
		b.ReportMetric(sesa.GeoMean(norm[m.String()]), fmt.Sprintf("time-%s", m))
	}
	// The paper's ordering must hold: x86 <= key <= SoS and SLFSpec,
	// NoSpec worst or near-worst among the 370 machines.
	key := sesa.GeoMean(norm[sesa.SLFSoSKey370.String()])
	sos := sesa.GeoMean(norm[sesa.SLFSoS370.String()])
	spec := sesa.GeoMean(norm[sesa.SLFSpec370.String()])
	if key > sos || sos > spec {
		b.Logf("warning: ordering key=%.3f sos=%.3f slfspec=%.3f deviates from the paper", key, sos, spec)
	}
}

// BenchmarkAblationKey isolates the contribution of the key (Section IV-B):
// SLFSoS (gate reopens on SB drain) versus SLFSoS-key (gate reopens on the
// forwarding store's write), on the most forwarding-intensive workload.
func BenchmarkAblationKey(b *testing.B) {
	var sos, key uint64
	for i := 0; i < b.N; i++ {
		chSoS, _, err := sesa.RunBenchmark("barnes", sesa.SLFSoS370, benchInsts, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		chKey, _, err := sesa.RunBenchmark("barnes", sesa.SLFSoSKey370, benchInsts, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		sos, key = chSoS.Cycles, chKey.Cycles
	}
	b.ReportMetric(float64(sos)/float64(key), "sos-over-key")
}

// BenchmarkAblationRFO isolates the read-for-ownership prefetch: without
// it, the serial SB drain exposes every store miss and the whole machine
// slows down (the baseline design choice DESIGN.md calls out).
func BenchmarkAblationRFO(b *testing.B) {
	p, _ := sesa.LookupProfile("radix")
	var with, without uint64
	for i := 0; i < b.N; i++ {
		for _, rfo := range []bool{true, false} {
			cfg := sesa.DefaultConfig(sesa.X86)
			cfg.Mem.RFOPrefetch = rfo
			w, err := sesa.BuildWorkload(p, cfg.Cores, benchInsts, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			st, err := sesa.RunWorkload(sesa.X86, cfg, w, 100_000_000)
			if err != nil {
				b.Fatal(err)
			}
			if rfo {
				with = st.Cycles
			} else {
				without = st.Cycles
			}
		}
	}
	b.ReportMetric(float64(without)/float64(with), "norfo-over-rfo")
}

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// instructions per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, _ := sesa.LookupProfile("swaptions")
	cfg := sesa.DefaultConfig(sesa.SLFSoSKey370)
	w, err := sesa.BuildWorkload(p, cfg.Cores, 20_000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		st, err := sesa.RunWorkload(sesa.SLFSoSKey370, cfg, w, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		total += int(st.Total().RetiredInsts)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkCheckerEnumerate measures exhaustive-enumeration speed on the
// largest litmus state space in the suite (iriw, 4 threads).
func BenchmarkCheckerEnumerate(b *testing.B) {
	t, _ := sesa.GetLitmus("iriw")
	for i := 0; i < b.N; i++ {
		sesa.Enumerate(t.Prog, sesa.CheckerX86TSO)
	}
}

// BenchmarkTraceGeneration measures workload-generation speed.
func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := sesa.LookupProfile("barnes")
	for i := 0; i < b.N; i++ {
		if _, err := sesa.BuildWorkload(p, 8, 10_000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyProxy quantifies the paper's energy argument (Section
// VI-B): the mechanism adds no snoops. The metric is the ratio of SQ/SB
// searches per retired load between 370-SLFSoS-key and x86 — close to 1.0,
// differing only through re-execution, never through extra mechanism snoops.
func BenchmarkEnergyProxy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		perLoad := func(model sesa.Model) float64 {
			_, st, err := sesa.RunBenchmark("barnes", model, benchInsts, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			t := st.Total()
			return float64(t.SQSearches) / float64(t.RetiredLoads)
		}
		ratio = perLoad(sesa.SLFSoSKey370) / perLoad(sesa.X86)
	}
	b.ReportMetric(ratio, "sq-searches-ratio")
	if ratio > 1.25 {
		b.Fatalf("key mechanism added %.2fx SQ searches; it must add none beyond re-execution", ratio)
	}
}

// BenchmarkSensitivitySBSize sweeps the SQ/SB capacity: smaller store
// buffers drain sooner (fewer gate closures) but stall dispatch more; the
// key's advantage over plain SLFSoS grows with SB depth. An extension
// experiment beyond the paper's fixed 56-entry configuration.
func BenchmarkSensitivitySBSize(b *testing.B) {
	for _, size := range []int{14, 28, 56, 112} {
		b.Run(fmt.Sprintf("SB%d", size), func(b *testing.B) {
			p, _ := sesa.LookupProfile("water_spatial")
			var sos, key uint64
			for i := 0; i < b.N; i++ {
				for _, model := range []sesa.Model{sesa.SLFSoS370, sesa.SLFSoSKey370} {
					cfg := sesa.DefaultConfig(model)
					cfg.Core.SQEntries = size
					w, err := sesa.BuildWorkload(p, cfg.Cores, benchInsts, benchSeed)
					if err != nil {
						b.Fatal(err)
					}
					st, err := sesa.RunWorkload(model, cfg, w, 100_000_000)
					if err != nil {
						b.Fatal(err)
					}
					if model == sesa.SLFSoS370 {
						sos = st.Cycles
					} else {
						key = st.Cycles
					}
				}
			}
			b.ReportMetric(float64(sos)/float64(key), "sos-over-key")
		})
	}
}

// BenchmarkSensitivityROBSize sweeps the ROB: larger windows lengthen the
// SA-speculative shadows and raise the gate-stall exposure, testing how the
// mechanism scales to wider machines.
func BenchmarkSensitivityROBSize(b *testing.B) {
	for _, size := range []int{112, 224, 448} {
		b.Run(fmt.Sprintf("ROB%d", size), func(b *testing.B) {
			p, _ := sesa.LookupProfile("barnes")
			var x86, key uint64
			for i := 0; i < b.N; i++ {
				for _, model := range []sesa.Model{sesa.X86, sesa.SLFSoSKey370} {
					cfg := sesa.DefaultConfig(model)
					cfg.Core.ROBEntries = size
					w, err := sesa.BuildWorkload(p, cfg.Cores, benchInsts, benchSeed)
					if err != nil {
						b.Fatal(err)
					}
					st, err := sesa.RunWorkload(model, cfg, w, 100_000_000)
					if err != nil {
						b.Fatal(err)
					}
					if model == sesa.X86 {
						x86 = st.Cycles
					} else {
						key = st.Cycles
					}
				}
			}
			b.ReportMetric(float64(key)/float64(x86), "key-over-x86")
		})
	}
}
