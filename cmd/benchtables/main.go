// Command benchtables regenerates every table and figure of the paper's
// evaluation at configurable scale, fanning experiment cells across a worker
// pool. Output is byte-identical for any -workers value: each cell draws its
// RNG streams from a seed derived from (seed, experiment, cell index), and
// rows merge in cell order. This is the reference generator behind the
// README's sample tables.
//
// Usage:
//
//	benchtables                              # full suite, one worker per core
//	benchtables -quick                       # reduced sizes for a fast smoke run
//	benchtables -run E5                      # one experiment by id
//	benchtables -run 'Table1.*|E6'           # any subset by id/name regexp
//	benchtables -run Stretch.* -workers 8 -format json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tapestry"

	"tapestry/internal/expt"
	"tapestry/internal/microbench"
)

func main() {
	run := flag.String("run", "", "run experiments matching this id/name regexp (e.g. E5, E-scale, Table1.*)")
	seed := flag.Int64("seed", 1, "base RNG seed; per-cell streams are derived from it")
	workers := flag.Int("workers", 0, "experiment cells run in parallel (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "output format: table | json | csv")
	exptFlags := expt.BindFlags(flag.CommandLine)
	benchJSON := flag.Bool("bench-json", false, "run the hot-path micro-benchmark set and emit BENCH_micro.json to stdout")
	benchBaseline := flag.String("bench-baseline", "", "with -bench-json: gate against this baseline BENCH_micro.json, exit 1 on regression")
	benchTolerance := flag.Float64("bench-tolerance", 0.25, "with -bench-baseline: allowed ns/op regression fraction (allocs/op tolerates none)")
	benchTime := flag.Duration("bench-time", 200*time.Millisecond, "with -bench-json: target time per benchmark repetition")
	benchCount := flag.Int("bench-count", 3, "with -bench-json: repetitions per benchmark; the minimum ns/op is reported")
	transport := flag.String("transport", "", "message transport backend: direct | loopback | tcp (default: $TAPESTRY_TRANSPORT, then direct)")
	flag.Parse()

	if *transport != "" {
		if _, err := tapestry.ParseTransport(*transport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Setenv("TAPESTRY_TRANSPORT", *transport)
	}

	if *benchJSON {
		runMicro(*benchBaseline, *benchTolerance, *benchTime, *benchCount)
		return
	}

	scale, err := exptFlags.Scale(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	r := expt.Runner{Seed: *seed, Scale: scale}
	if err := r.RunAndEmit(os.Stdout, *run, *format); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
}

// runMicro executes the micro-benchmark set, writes BENCH_micro.json to
// stdout, and — when a baseline is given — exits 1 if any benchmark
// regresses past the tolerance gate.
func runMicro(baselinePath string, tolerance float64, benchTime time.Duration, count int) {
	results := microbench.Run(microbench.Benches(), microbench.Options{
		BenchTime: benchTime,
		Count:     count,
		Verbose:   os.Stderr,
	})
	if err := microbench.WriteJSON(os.Stdout, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	if baselinePath == "" {
		return
	}
	f, err := os.Open(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	baseline, err := microbench.ReadJSON(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	if violations := microbench.Compare(baseline, results, tolerance); len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "benchtables: benchmark regression gate FAILED:")
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchtables: benchmark gate passed vs", baselinePath)
}
