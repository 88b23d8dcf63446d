package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	var values []float64
	for i := 0; i < 200000; i++ {
		// log-uniform over 100 ns .. 10 ms, the range of everything timed here
		v := int64(100 * math.Pow(1e5, rng.Float64()))
		values = append(values, float64(v))
		h.add(v)
	}
	sort.Float64s(values)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := values[int(q*float64(len(values)-1))]
		got := h.quantile(q)
		if math.Abs(got-want) > 0.012*want {
			t.Errorf("q%.3f: histogram %.1f, sorted slice %.1f", q, got, want)
		}
	}
	var one hist
	one.add(1234)
	if got := one.quantile(0.5); got < 1216 || got > 1248 {
		t.Errorf("single value 1234 reads %.1f", got)
	}
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		if lo, hi := bucketLow(b), bucketLow(b+1); v < lo || v >= hi {
			t.Errorf("value %d fell in bucket %d = [%d, %d)", v, b, lo, hi)
		}
	}
}

func TestGate(t *testing.T) {
	steady := func(n int, level float64) (all []float64, refs [][3]float64) {
		for i := 0; i < n; i++ {
			refs = append(refs, [3]float64{level, level * 1.01, level * 0.99})
			all = append(all, refs[i][:]...)
		}
		return all, refs
	}
	count := func(b []bool) (n int) {
		for _, v := range b {
			if v {
				n++
			}
		}
		return n
	}

	all, refs := steady(20, 100)
	accepted, quiet, noisy := gateCycles(all, refs)
	if count(accepted) != 20 || noisy || quiet < 99 || quiet > 101 {
		t.Errorf("quiet run: %d of 20 accepted, quiet %.1f, noisy %v", count(accepted), quiet, noisy)
	}

	// one burst: a neighbour takes half the box for two cycles
	all, refs = steady(20, 100)
	refs[7], refs[8] = [3]float64{100, 55, 52}, [3]float64{52, 60, 98}
	all = nil
	for _, r := range refs {
		all = append(all, r[:]...)
	}
	accepted, _, noisy = gateCycles(all, refs)
	if accepted[7] || accepted[8] || count(accepted) != 18 || noisy {
		t.Errorf("one burst: accepted %v, noisy %v", accepted, noisy)
	}

	// slow drift: the box loses 30% over the run; only the cycles near the
	// quiet level count, and the run is flagged
	all, refs = nil, nil
	for i := 0; i < 20; i++ {
		level := 100 - 1.5*float64(i)
		refs = append(refs, [3]float64{level, level, level})
		all = append(all, level, level, level)
	}
	accepted, quiet, noisy = gateCycles(all, refs)
	for i, ok := range accepted {
		if want := math.Abs(refs[i][0]-quiet) <= gateTolerance*quiet; ok != want {
			t.Errorf("drift: cycle %d at %.1f against quiet %.1f: accepted %v", i, refs[i][0], quiet, ok)
		}
	}
	if count(accepted) == 20 {
		t.Errorf("drift: every cycle accepted")
	}

	// never quiet: the reference rate jumps by a factor between samples
	all, refs = nil, nil
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		r := [3]float64{50 + 50*rng.Float64(), 50 + 50*rng.Float64(), 50 + 50*rng.Float64()}
		refs = append(refs, r)
		all = append(all, r[:]...)
	}
	accepted, _, noisy = gateCycles(all, refs)
	if !noisy {
		t.Errorf("never quiet: %d of 20 accepted and not flagged", count(accepted))
	}
	if got := acceptedMedian([]float64{1, 2, 3, 4, 5}, []bool{false, false, false, false, true}); got != 3 {
		t.Errorf("fewer than three accepted cycles must fall back to all: median %v", got)
	}
}

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	sp, _ := specByName("mixed-loopback")
	sp = sp.smoke()
	w := newWorld(sp, worldSeed)
	addrs := make([]int, sp.nodes)
	for i := range addrs {
		addrs[i] = i * 3
	}
	w.recordPlacement(addrs)
	a := generateSchedule(w, 42, 0, 4096, 1024, sp.mix)
	b := generateSchedule(w, 42, 0, 4096, 1024, sp.mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := generateSchedule(w, 43, 0, 4096, 1024, sp.mix); reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("different seeds, same schedule")
	}
	if c := generateSchedule(w, 42, 1, 4096, 1024, sp.mix); reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("different clients, same schedule")
	}
	// Every window is closed: replaying the writes leaves nothing published
	// at a window's end, and every unpublish undoes the publish before it.
	published := int32(-1)
	kinds := map[opKind]int{}
	for i, e := range a.ops {
		kinds[e.kind]++
		switch e.kind {
		case opPublish:
			if published >= 0 {
				t.Fatalf("op %d publishes while slot %d still holds the name", i, published)
			}
			published = e.slot
		case opUnpublish:
			if published != e.slot {
				t.Fatalf("op %d unpublishes from slot %d, published from %d", i, e.slot, published)
			}
			published = -1
		}
		if (i+1)%1024 == 0 && published >= 0 {
			t.Fatalf("window ending at op %d leaves a name published", i)
		}
	}
	for kind, share := range map[opKind]float64{opPublish: 0.15, opUnpublish: 0.15, opLocatePrivate: 0.05, opLocate: 0.65} {
		if got := float64(kinds[kind]) / float64(len(a.ops)); math.Abs(got-share) > 0.03 {
			t.Errorf("kind %d is %.3f of the schedule, want about %.2f", kind, got, share)
		}
	}
	if got, want := a.optimalBetween(0, 3*4096), 3*a.optimal[4096]; math.Abs(got-want) > 1e-9*want {
		t.Errorf("three laps of optimal distance: %v, want %v", got, want)
	}
}

// The reference kernel is frozen: every calibrated number is divided by its
// rate, so a faster kernel would make every later run look slower.
func TestRefChecksum(t *testing.T) {
	s := newRefState(0)
	s.run(100000)
	const wantX, wantSum = uint64(0xaa0f279b73df687d), uint64(0xb52dc8914b6fceed)
	if s.x != wantX || s.sum != wantSum {
		t.Errorf("reference kernel changed: after 100000 iterations x=%#x sum=%#x, pinned x=%#x sum=%#x", s.x, s.sum, wantX, wantSum)
	}
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(f.Workloads), len(specs))
	}
	for i, sp := range specs {
		if f.Workloads[i].Name != sp.name || f.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", sp.name, len(sp.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, g, d)
		}
	}
}

// Every workload, shrunk to a 256-node mesh and two short cycles, must emit
// every metric BENCHMARK.json names, end to end and traced, with no failed op.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, sp := range specs {
		o := options{sp: sp.smoke(), seed: 5, world: worldSeed, seconds: 1, tm: smokeTiming, smoke: true}
		res, err := runEndToEnd(o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", sp.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range f.EndToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s reads %+v (present %v)", sp.name, m.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(f.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d listed", sp.name, len(res.Metrics), len(f.EndToEnd))
		}
		res, err = runTraced(o)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed", sp.name, res.Failed, res.Attempted)
		}
		for _, m := range f.PerLayer {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s reads %+v (present %v)", sp.name, m.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(f.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d listed", sp.name, len(res.Metrics), len(f.PerLayer))
		}
		if _, err := os.Stat("out/trace-" + sp.name + ".json"); err != nil {
			t.Errorf("%s: span file: %v", sp.name, err)
		}
	}
}
