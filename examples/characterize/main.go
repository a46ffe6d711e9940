// Characterize: run a few Table IV benchmarks on all seven machine models
// and print the paper's key metrics — forwarding rate, gate stalls,
// store-atomicity re-execution, and execution time normalized to x86.
//
//	go run ./examples/characterize
package main

import (
	"fmt"
	"log"

	"sesa"
)

func main() {
	const instPerCore = 20_000
	benchmarks := []string{"barnes", "x264", "radix", "505.mcf", "500.perlbench_2"}

	for _, bench := range benchmarks {
		fmt.Printf("== %s\n", bench)
		var base uint64
		for _, model := range sesa.AllModels() {
			ch, _, err := sesa.RunBenchmark(bench, model, instPerCore, 42)
			if err != nil {
				log.Fatal(err)
			}
			if model == sesa.X86 {
				base = ch.Cycles
			}
			fmt.Printf("   %-15s time=%.3fx  fwd=%6.3f%%  gate-stalls=%6.3f%% (%4.1f cyc)  SA-reexec=%6.3f%%\n",
				model, float64(ch.Cycles)/float64(base),
				ch.ForwardedPct, ch.GateStallsPct, ch.AvgStallCycles, ch.ReexecutedPct)
		}
	}

	fmt.Println()
	fmt.Println("The paper's shape (Section VI): x86 fastest; 370-NoSpec pays the")
	fmt.Println("blanket-enforcement cost; 370-SLFSpec recovers some; the retire gate")
	fmt.Println("(370-SLFSoS) and the key (370-SLFSoS-key) close most of the gap.")
	fmt.Println("This repository's: 370-SLFSpec is slower than 370-NoSpec on both suites'")
	fmt.Println("geomeans at every seed, and 370-SLFSoS-key is the cheapest store-atomic")
	fmt.Println("machine (EXPERIMENTS.md, Figure 10).")
}
