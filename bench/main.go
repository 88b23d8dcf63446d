// Command bench is the repository's end-to-end benchmark: four workloads over
// the public tapestry facade, measured in reference-calibrated, quiet-gated
// cycles, plus a traced run that attributes the time to the repository's
// layers. BENCHMARK.json at the repository root names its metrics; README.md
// beside this file explains the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the driver's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	sp      spec
	seed    int64
	world   int64
	seconds float64
	tm      timing
	smoke   bool
	cycles  bool // print every cycle to standard error
}

func main() {
	workload := flag.String("workload", "", "workload to run: locate-direct, mixed-loopback, locate-tcp or churn-maint")
	seed := flag.Int64("seed", 1, "seed of the clients' request streams")
	world := flag.Int64("world", worldSeed, fmt.Sprintf("seed of the mesh, objects and churn script (held out: %d)", heldOutWorldSeed))
	seconds := flag.Float64("seconds", 24, "how long to measure, after set-up and warm-up")
	trace := flag.Int("trace", 0, "1 runs the traced single-client twin run and reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "256-node mesh, two short cycles: checks the plumbing, measures nothing")
	cycles := flag.Bool("cycles", false, "print every cycle's reference rates, raw rate and latency to standard error")
	aa := flag.Bool("aa", false, "run every workload twice in alternating order and compare the pairs against the bounds")
	flag.Parse()

	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	o := options{sp: sp, seed: *seed, world: *world, seconds: *seconds, tm: fullTiming, cycles: *cycles}
	if *smoke {
		o.sp, o.tm, o.smoke = sp.smoke(), smokeTiming, true
	}
	run := runEndToEnd
	defs := endToEnd
	if *trace != 0 {
		run, defs = runTraced, perLayer
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, sp.name, defs, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// emit prints the metrics as a table and then the result as one JSON line.
func emit(f *os.File, workload string, defs []metricDef, res *result) error {
	tw := tabwriter.NewWriter(f, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s\nattempted\t%d\nfailed\t%d\n", workload, res.Attempted, res.Failed)
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, v.Value, v.Unit)
	}
	if len(res.Metrics) != len(defs) {
		var extra []string
		for name := range res.Metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d: %v", len(res.Metrics), len(defs), extra)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// newResult fills the contract's envelope from a tally. Clean misses of a
// live object are availability, reported by ok_pct; failed counts answers that
// are wrong and calls that returned an error.
func newResult(defs []metricDef, t tally, values map[string]float64) *result {
	res := &result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		}
	}
	return res
}

// runEndToEnd is a --trace 0 run: set up (several times, for a steady
// setup_s), warm up, cycle, and report every end-to-end metric.
func runEndToEnd(o options) (*result, error) {
	// The static build runs on every CPU, so its yardstick does too.
	setupRefs := newRefRunner(runtime.GOMAXPROCS(0), o.tm.ref)
	refs := newRefRunner(refGoroutines(o.sp), o.tm.ref)
	var su *setUp
	var setups, heaps []float64
	for i := 0; i < o.tm.setups; i++ {
		if su != nil {
			_ = su.d.nw.Close() // the in-process transports hold nothing; a TCP listener is best effort
			su = nil
		}
		var err error
		if su, err = buildFacade(o.sp, o.world, setupRefs); err != nil {
			return nil, err
		}
		// The first set-up's heap is the mesh alone: Close on a statically
		// built TCP network does not reach the live listener, whose goroutine
		// keeps the previous mesh reachable.
		setups, heaps = append(setups, su.seconds), append(heaps, su.heapMB)
	}
	defer su.d.nw.Close()
	var l load
	if o.sp.churn {
		l = newChurnLoad(su.w, su.d, o.seed, o.tm)
	} else {
		l = newStaticLoad(su.w, su.d, o.seed, clientCount(o.sp), o.tm)
	}
	cycles, err := measure(l, refs, o.tm.cycleCount(o.sp, o.seconds))
	if err != nil {
		return nil, err
	}
	s := summarize(cycles, refs, l.total())
	if o.cycles {
		for i, c := range cycles {
			fmt.Fprintf(os.Stderr, "cycle %d refs %.4g %.4g %.4g rate %.6g p50_ns %.5g p99_ns %.5g samples %d\n",
				i, c.refs[0], c.refs[1], c.refs[2], c.untimed.rate, c.p50ns, c.p99ns, c.samples)
		}
	}
	if s.noisy {
		fmt.Fprintf(os.Stderr, "bench: NOISY RUN: %d of %d cycles ran at the quiet level; medians are over what there is\n", s.accepted, s.cycles)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d/%d cycles accepted, quiet ref %.3g/s, machine factor %.3f, raw %.6g ops/s, p99 %.4g us, %d latency samples per timed slice, %d clean misses\n",
		o.sp.name, o.seed, s.accepted, s.cycles, s.quiet, s.factor, s.rawRate, s.p99us, s.samples, s.t.missed)
	t := s.t
	if !o.sp.churn {
		t.failed += t.missed // a static mesh has no excuse for a miss
		t.missed = 0
	}
	return newResult(endToEnd, t, map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          s.rate,
		"locate_p50_us":      s.p50us,
		"allocs_per_op":      s.allocs,
		"alloc_bytes_per_op": s.bytes,
		"msgs_per_op":        s.msgs,
		"hops_per_locate":    float64(t.hops) / float64(t.locates),
		"stretch":            t.dist / t.optimal,
		"ok_pct":             100 * float64(t.ops-t.missed-t.failed) / float64(t.ops),
		"heap_mb":            heaps[0],
	}), nil
}
