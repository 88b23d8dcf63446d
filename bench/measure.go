package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// timing is the shape of a run; see README.md, "Measurement method".
type timing struct {
	ref     time.Duration // one reference sample
	warm    time.Duration // untimed warm-up before the first cycle
	untimed time.Duration // throughput slice: no per-op clock reads
	timed   time.Duration // latency slice: every op timed
	setups  int           // set-up repetitions; setup_s is their median
	// churn-maint slices are whole epochs, not durations; churnCycle is what
	// one of its cycles takes on the nominal box.
	warmEpochs, untimedEpochs, timedEpochs int
	churnCycle                             time.Duration
	cycles                                 int // fixed cycle count; 0 derives it from the run's seconds
}

// cycleCount turns a run's seconds into a number of cycles. The count is
// fixed before the run starts, not cut off by the clock: churn-maint's mesh
// ages as it churns (a static build is the oracle's, joins are not), so only
// runs of the same length in epochs are comparable.
func (tm timing) cycleCount(sp spec, seconds float64) int {
	if tm.cycles > 0 {
		return tm.cycles
	}
	per := 2*tm.ref + tm.untimed + tm.timed
	if sp.churn {
		per = tm.churnCycle
	}
	if n := int(seconds / per.Seconds()); n > 2 {
		return n
	}
	return 2
}

var (
	fullTiming  = timing{ref: 60 * time.Millisecond, warm: 1500 * time.Millisecond, untimed: 600 * time.Millisecond, timed: 250 * time.Millisecond, setups: 3, warmEpochs: 4, untimedEpochs: 8, timedEpochs: 3, churnCycle: 1200 * time.Millisecond}
	smokeTiming = timing{ref: 4 * time.Millisecond, warm: 20 * time.Millisecond, untimed: 30 * time.Millisecond, timed: 20 * time.Millisecond, setups: 1, warmEpochs: 1, untimedEpochs: 1, timedEpochs: 1, cycles: 2}
)

// refRunner samples the reference kernel and remembers every sample, which is
// what the quiet level is computed from.
type refRunner struct {
	states []*refState
	d      time.Duration
	all    []float64
}

func newRefRunner(goroutines int, d time.Duration) *refRunner {
	r := &refRunner{d: d}
	for i := 0; i < goroutines; i++ {
		r.states = append(r.states, newRefState(i))
	}
	return r
}

func (r *refRunner) sample() float64 {
	v := refSample(r.states, r.d)
	r.all = append(r.all, v)
	return v
}

// refElasticity is how much of the reference kernel's slowdown the workloads
// share. Over 760 cycles of the four workloads on the shared 2-vCPU box the
// log-log slope of throughput against the bracketing reference rate was 0.48
// to 0.56 (correlation 0.61 to 0.73), and of median latency -0.42 to -0.74:
// the cache-resident kernel feels a busy neighbour about twice as much as a
// mesh walk that waits on memory does. Dividing by the full ratio
// over-corrects; the square root halves the run-to-run spread of raw medians.
const refElasticity = 0.5

// machineFactor is how fast the box ran between two reference samples,
// relative to the nominal quiet box, as the workloads feel it. A calibrated
// rate is the raw rate divided by it; a calibrated time is the raw time
// multiplied by it.
func machineFactor(before, after float64) float64 {
	return math.Pow((before+after)/2/refNominal, refElasticity)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func clientCount(sp spec) int {
	if sp.churn {
		return 1
	}
	if n := runtime.GOMAXPROCS(0); n < maxClients {
		return n
	}
	return maxClients
}

// refGoroutines is how many goroutines the reference kernel runs on for a
// workload's cycles: as many as it keeps busy. That is its clients, except
// that churn-maint's one driver allocates 270 MB a second and the collector
// marks on the idle CPUs, so whether the box is giving it a second core shows
// in its throughput; a one-goroutine yardstick cannot see that.
func refGoroutines(sp spec) int {
	if sp.churn {
		return runtime.GOMAXPROCS(0)
	}
	return clientCount(sp)
}

// setUp is one timed set-up of a workload's facade mesh.
type setUp struct {
	w       *world
	d       *facadeDriver
	seconds float64 // stage times, each divided by its machine factor
	heapMB  float64 // live heap after a forced GC
}

// buildFacade creates the space, builds the mesh and publishes the objects,
// with a reference sample between stages.
func buildFacade(sp spec, world int64, refs *refRunner) (*setUp, error) {
	var s setUp
	var d *facadeDriver
	var addrs []int
	stages := []func() error{
		func() error { s.w = newWorld(sp, world); return nil },
		func() (err error) { d, addrs, err = newFacadeDriver(s.w, world); return err },
		func() error { s.w.recordPlacement(addrs); return s.w.populate(d) },
	}
	before := refs.sample()
	for _, stage := range stages {
		start := time.Now()
		if err := stage(); err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		after := refs.sample()
		s.seconds += el / machineFactor(before, after)
		before = after
	}
	s.d = d
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapMB = float64(ms.HeapAlloc) / 1e6
	return &s, nil
}

// load is a workload ready to be measured in slices.
type load interface {
	warm() error
	slice(timed bool) (slice, error)
	latency() *hist // locate latencies of the last timed slice
	total() tally   // everything since warm
}

type staticLoad struct {
	cs []*client
	tm timing
}

func newStaticLoad(w *world, d driver, seed int64, clients int, tm timing) *staticLoad {
	l := &staticLoad{tm: tm}
	for c := 0; c < clients; c++ {
		l.cs = append(l.cs, &client{d: d, w: w, sched: generateSchedule(w, seed, c, scheduleLen, scheduleLen, w.sp.mix)})
	}
	return l
}

func (l *staticLoad) warm() error {
	runSlice(l.cs, l.tm.warm, false)
	for _, c := range l.cs {
		if c.t.failed > 0 {
			return fmt.Errorf("%d of %d warm-up ops failed", c.t.failed, c.t.ops)
		}
		c.t = tally{}
	}
	return nil
}

func (l *staticLoad) slice(timed bool) (slice, error) {
	d := l.tm.untimed
	if timed {
		d = l.tm.timed
	}
	return runSlice(l.cs, d, timed), nil
}

func (l *staticLoad) latency() *hist {
	var h hist
	for _, c := range l.cs {
		h.merge(&c.lat)
	}
	return &h
}

func (l *staticLoad) total() tally {
	var t tally
	for _, c := range l.cs {
		t.add(c.t)
	}
	return t
}

type churnLoad struct {
	c   *churner
	tm  timing
	lat hist
}

func newChurnLoad(w *world, d driver, seed int64, tm timing) *churnLoad {
	return &churnLoad{c: &churner{w: w, d: d, probe: rand.New(rand.NewSource(seed))}, tm: tm}
}

func (l *churnLoad) epochs(n int) error {
	for i := 0; i < n; i++ {
		if err := l.c.runEpoch(); err != nil {
			return err
		}
	}
	return nil
}

func (l *churnLoad) warm() error {
	err := l.epochs(l.tm.warmEpochs)
	l.c.t = tally{}
	l.c.pre, l.c.preOK, l.c.post, l.c.postOK = 0, 0, 0, 0
	return err
}

func (l *churnLoad) slice(timed bool) (slice, error) {
	n := l.tm.untimedEpochs
	l.c.lat = nil
	if timed {
		n = l.tm.timedEpochs
		l.lat.reset()
		l.c.lat = &l.lat
	}
	return meter(l.c.d, func() (uint64, float64, error) {
		before := l.c.t.ops
		start := time.Now()
		err := l.epochs(n)
		ops := l.c.t.ops - before
		return ops, float64(ops) / time.Since(start).Seconds(), err
	})
}

func (l *churnLoad) latency() *hist { return &l.lat }
func (l *churnLoad) total() tally   { return l.c.t }

// cycle is one reference-bracketed pair of slices.
type cycle struct {
	refs    [3]float64 // before the untimed slice, between the slices, after the timed one
	untimed slice
	p50ns   float64
	p99ns   float64
	samples uint64
}

// measure warms the load up and then runs n cycles.
func measure(l load, refs *refRunner, n int) ([]cycle, error) {
	if err := l.warm(); err != nil {
		return nil, err
	}
	var cycles []cycle
	r := refs.sample()
	for len(cycles) < n {
		c := cycle{}
		c.refs[0] = r
		var err error
		if c.untimed, err = l.slice(false); err != nil {
			return nil, err
		}
		c.refs[1] = refs.sample()
		if _, err = l.slice(true); err != nil {
			return nil, err
		}
		h := l.latency()
		c.p50ns, c.p99ns, c.samples = h.quantile(0.5), h.quantile(0.99), h.n
		c.refs[2] = refs.sample()
		r = c.refs[2]
		cycles = append(cycles, c)
	}
	return cycles, nil
}

// summary is a run reduced to its gated medians and totals.
type summary struct {
	cycles, accepted int
	noisy            bool
	quiet            float64 // the run's quiet reference rate
	factor           float64 // median machine factor of accepted untimed slices
	rawRate, rate    float64 // ops/s: as measured, and divided by the machine factor
	p50us, p99us     float64
	samples          uint64 // locate latencies per timed slice, median
	allocs, bytes    float64
	msgs, cpuUs      float64 // per op, over every untimed slice
	t                tally
}

func summarize(cycles []cycle, refs *refRunner, t tally) summary {
	cr := make([][3]float64, len(cycles))
	for i, c := range cycles {
		cr[i] = c.refs
	}
	accepted, quiet, noisy := gateCycles(refs.all, cr)
	s := summary{cycles: len(cycles), noisy: noisy, quiet: quiet, t: t}
	var raw, cal, factor, p50, p99, samples []float64
	var ops, mallocs, bytes uint64
	var msgs int64
	var cpu float64
	for i, c := range cycles {
		if accepted[i] {
			s.accepted++
		}
		f := machineFactor(c.refs[0], c.refs[1])
		raw = append(raw, c.untimed.rate)
		cal = append(cal, c.untimed.rate/f)
		factor = append(factor, f)
		ft := machineFactor(c.refs[1], c.refs[2])
		p50 = append(p50, c.p50ns/1e3*ft)
		p99 = append(p99, c.p99ns/1e3*ft)
		samples = append(samples, float64(c.samples))
		ops += c.untimed.ops
		mallocs += c.untimed.mallocs
		bytes += c.untimed.bytes
		msgs += c.untimed.msgs
		cpu += c.untimed.cpu
	}
	s.rawRate, s.rate = acceptedMedian(raw, accepted), acceptedMedian(cal, accepted)
	s.factor = acceptedMedian(factor, accepted)
	s.p50us, s.p99us = acceptedMedian(p50, accepted), acceptedMedian(p99, accepted)
	s.samples = uint64(acceptedMedian(samples, accepted))
	n := float64(ops)
	s.allocs, s.bytes, s.msgs, s.cpuUs = float64(mallocs)/n, float64(bytes)/n, float64(msgs)/n, cpu*1e6/n
	return s
}
