// Package workload generates the object placements, query mixes and churn
// schedules used by the experiment harness: uniform and Zipf-popular object
// access, random replica placement, and Poisson-ish join/leave interleavings.
// Everything is driven by an explicit RNG so experiments replay exactly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Placement assigns objects to server indices.
type Placement struct {
	// Servers[i] lists the replica holders of object i.
	Servers [][]int
	// Names[i] is a stable human-readable object name (hashable to a GUID).
	Names []string
}

// UniformPlacement places `objects` objects, each with `replicas` copies on
// distinct servers drawn uniformly from n nodes. Distinctness comes from a
// partial Fisher–Yates shuffle over one reusable index slice — no per-object
// map allocation and no rejection loop, so large placements are O(objects ×
// replicas) plus one O(n) setup.
func UniformPlacement(objects, replicas, n int, rng *rand.Rand) Placement {
	if replicas > n {
		panic("workload: more replicas than nodes")
	}
	p := Placement{Servers: make([][]int, objects), Names: make([]string, objects)}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < objects; i++ {
		p.Names[i] = fmt.Sprintf("object-%06d", i)
		servers := make([]int, replicas)
		for k := 0; k < replicas; k++ {
			j := k + rng.Intn(n-k)
			idx[k], idx[j] = idx[j], idx[k]
			servers[k] = idx[k]
		}
		p.Servers[i] = servers
	}
	return p
}

// QueryMix yields (client, object) pairs.
type QueryMix struct {
	Clients []int
	Objects []int
}

// UniformQueries draws q independent (client, object) pairs uniformly.
func UniformQueries(q, nClients, nObjects int, rng *rand.Rand) QueryMix {
	m := QueryMix{Clients: make([]int, q), Objects: make([]int, q)}
	for i := 0; i < q; i++ {
		m.Clients[i] = rng.Intn(nClients)
		m.Objects[i] = rng.Intn(nObjects)
	}
	return m
}

// ZipfQueries draws q (client, object) pairs with Zipf-distributed object
// popularity (exponent s > 1), the standard skew for content workloads.
func ZipfQueries(q, nClients, nObjects int, s float64, rng *rand.Rand) QueryMix {
	if s <= 1 {
		panic("workload: zipf exponent must exceed 1")
	}
	z := rand.NewZipf(rng, s, 1, uint64(nObjects-1))
	m := QueryMix{Clients: make([]int, q), Objects: make([]int, q)}
	for i := 0; i < q; i++ {
		m.Clients[i] = rng.Intn(nClients)
		m.Objects[i] = int(z.Uint64())
	}
	return m
}

// ChurnOp is one membership event.
type ChurnOp struct {
	Join bool
	// Crash marks a departure as involuntary (the node dies without running
	// the voluntary-delete protocol); meaningful when Join is false.
	Crash bool
	// Victim selects which current member leaves (index into the live set,
	// modulo its size at execution time); meaningful when Join is false.
	Victim int
}

// PoissonChurn draws a per-epoch churn schedule: each epoch gets
// Poisson(joinMean) joins, Poisson(leaveMean) voluntary leaves and
// Poisson(crashMean) crashes, shuffled together. Departures are capped so
// the planned population (starting from `population`) never drops below
// minPopulation — the guard is on the plan; executors additionally bound
// victims by the live set at execution time. Everything is driven by the
// explicit RNG, so schedules replay exactly.
//
// Parameter edge cases, as contract: a zero mean yields zero events of that
// kind every epoch (it does not disable the other streams); negative or NaN
// means panic rather than silently degenerating (a NaN mean would spin the
// sampler forever); minPopulation below 1 is clamped to 1 — a plan can never
// empty the overlay — and population below the (clamped) minimum panics;
// epochs <= 0 returns an empty schedule.
func PoissonChurn(epochs int, population, minPopulation int, joinMean, leaveMean, crashMean float64, rng *rand.Rand) [][]ChurnOp {
	for _, m := range []float64{joinMean, leaveMean, crashMean} {
		if m < 0 || math.IsNaN(m) {
			panic(fmt.Sprintf("workload: invalid churn mean %v", m))
		}
	}
	if minPopulation < 1 {
		minPopulation = 1
	}
	if population < minPopulation {
		panic("workload: population below minimum")
	}
	if epochs < 0 {
		epochs = 0
	}
	sched := make([][]ChurnOp, epochs)
	pop := population
	for e := range sched {
		joins := poisson(joinMean, rng)
		leaves := poisson(leaveMean, rng)
		crashes := poisson(crashMean, rng)
		for pop+joins-leaves-crashes < minPopulation && leaves+crashes > 0 {
			// Shed planned departures fairly until the floor holds.
			if leaves >= crashes {
				leaves--
			} else {
				crashes--
			}
		}
		ops := make([]ChurnOp, 0, joins+leaves+crashes)
		for i := 0; i < joins; i++ {
			ops = append(ops, ChurnOp{Join: true})
		}
		for i := 0; i < leaves; i++ {
			ops = append(ops, ChurnOp{Victim: rng.Intn(1 << 30)})
		}
		for i := 0; i < crashes; i++ {
			ops = append(ops, ChurnOp{Crash: true, Victim: rng.Intn(1 << 30)})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		sched[e] = ops
		pop += joins - leaves - crashes
	}
	return sched
}

// FlashCrowdQueries draws q (client, object) pairs where fraction `hot` of
// the queries target the single object `hotObject` and the remainder follow
// the usual Zipf(s) background mix — the flash-crowd storm of the chaos
// scenarios, where one object abruptly dominates the workload. hot must lie
// in [0,1]; hotObject must be a valid object index. Clients are uniform
// throughout. Exactly one rng draw decides hot-vs-background per query, so
// mixes with different `hot` under the same seed stay aligned.
func FlashCrowdQueries(q, nClients, nObjects, hotObject int, hot float64, s float64, rng *rand.Rand) QueryMix {
	if hot < 0 || hot > 1 || math.IsNaN(hot) {
		panic(fmt.Sprintf("workload: flash-crowd hot fraction %v outside [0,1]", hot))
	}
	if hotObject < 0 || hotObject >= nObjects {
		panic(fmt.Sprintf("workload: hot object %d outside [0,%d)", hotObject, nObjects))
	}
	if s <= 1 {
		panic("workload: zipf exponent must exceed 1")
	}
	z := rand.NewZipf(rng, s, 1, uint64(nObjects-1))
	m := QueryMix{Clients: make([]int, q), Objects: make([]int, q)}
	for i := 0; i < q; i++ {
		m.Clients[i] = rng.Intn(nClients)
		if rng.Float64() < hot {
			m.Objects[i] = hotObject
		} else {
			m.Objects[i] = int(z.Uint64())
		}
	}
	return m
}

// JoinStampede returns a burst of `joins` back-to-back join operations — the
// adversarial complement of PoissonChurn's smooth arrivals, stressing the
// concurrent-join machinery (§4.4) with a correlated arrival wave. Negative
// counts panic.
func JoinStampede(joins int) []ChurnOp {
	if joins < 0 {
		panic(fmt.Sprintf("workload: negative stampede size %d", joins))
	}
	ops := make([]ChurnOp, joins)
	for i := range ops {
		ops[i] = ChurnOp{Join: true}
	}
	return ops
}

// poisson samples Poisson(mean) by Knuth's product-of-uniforms method.
// Large means are split recursively — the sum of independent Poisson(m/2)
// draws is exactly Poisson(m) — so exp(-mean) stays far from the underflow
// that would otherwise silently cap every draw near 745.
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean > 32 {
		return poisson(mean/2, rng) + poisson(mean/2, rng)
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
