package expt

import (
	"fmt"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// planetSpec narrows the default 8-digit IDs to 7: at 10^5 nodes the
// populated prefix levels stop well short of either bound, and the slimmer
// tables keep the full mesh comfortably in memory.
var planetSpec = ids.Spec{Base: 16, Digits: 7}

const (
	planetSample   = 8     // candidates drawn per slot by the sampled builder
	planetEpochLen = 100.0 // virtual-time units per epoch
	planetMaintDiv = 64    // nodes/planetMaintDiv maintenance ops per epoch
)

// planetDef (E-planet) is the planetary-scale scenario the discrete-event
// engine exists for: a 100k-node overlay over a uniform point cloud, built
// with the sampled static constructor and loaded with 10^6 objects, then
// driven through epochs in ONE virtual-time run where Poisson churn,
// staggered per-node soft-state maintenance and a Zipf query mix all
// interleave at message granularity on the shared event clock. Every
// operation is a suspendable event handler: a join can observe a gateway
// that crashes mid-handshake, a locate can race a republish, and the whole
// run replays bit-identically from its seed — for any -workers value,
// because the only parallelism (the sampled build) is worker-invariant and
// the engine resumes exactly one operation at a time.
//
// Latency columns are virtual time: each locate's span is stamped by the
// event clock at its first and last message (netsim.Cost.VirtualLatency), so
// the percentiles reflect metric-space distances plus inbound-queue waits,
// not host wall-clock.
//
// This is the one churn experiment that does not replay a scenario timeline
// on scenario.Driver (replay.go), for three reasons. Its 100k-node mesh needs
// core.BuildStaticSampled with a real sample, which overlay.Protocol's Build
// does not offer. Its maintenance is per node and staggered across the epoch,
// where the Driver's Maintain is one protocol-wide pass. And its joins,
// leaves and crashes must interleave with one another in virtual time, which
// the Driver's single control operation cannot do: the overlay adapters hold
// their membership lock across parks, so it runs membership events one at a
// time.
func planetDef(nodes, objects, epochs, queries, buildWorkers int) Def {
	d := Def{
		Name: "Planet",
		Table: Table{
			Title: "E-planet: virtual-time run at planetary scale (event-driven engine)",
			Note:  "interleaved Poisson churn, staggered maintenance and Zipf queries on one deterministic event clock",
			Header: []string{"nodes", "epoch", "live", "joins", "jfail", "leaves", "crashes",
				"maint", "maint msgs", "avail", "mean hops", "vlat p50", "vlat p95", "vlat p99", "clock", "events"},
		},
	}
	d.Cells = append(d.Cells, Cell{
		Label: fmt.Sprintf("nodes=%d", nodes),
		Run: func(seed int64, t *Table) {
			runPlanetCell(seed, t, nodes, objects, epochs, queries, buildWorkers)
		},
	})
	return d
}

func runPlanetCell(seed int64, t *Table, baseNodes, objects, epochs, queries, buildWorkers int) {
	// Substrate: a uniform cloud sized with headroom for churn arrivals.
	// Distances are O(1), so no n×n matrix and no row cache to tune.
	trng := subRNG(seed, "topology")
	hostsN := baseNodes + baseNodes/4 + 64
	space := metric.NewUniformCloud(hostsN, trng)
	net := netsim.New(space)
	hosts := make([]netsim.Addr, hostsN)
	for i, a := range trng.Perm(hostsN) {
		hosts[i] = netsim.Addr(a)
	}

	cfg := defaultTapConfig()
	cfg.Spec = planetSpec
	cfg.Seed = subSeed(seed, "sample") // drives the sampled builder's draws
	cfg.PointerTTL = int64(epochs) + 2 // pointers outlive the run; refresh is load, not correctness

	brng := subRNG(seed, "build")
	parts := core.StaticParticipants(cfg.Spec, hosts[:baseNodes], brng)
	m, err := core.BuildStaticSampled(net, cfg, parts, planetSample, buildWorkers)
	if err != nil {
		panic(err)
	}

	// Object population, published in direct-call mode before the engine
	// attaches: setup traffic takes zero virtual time by design.
	wrng := subRNG(seed, "workload")
	members := m.Nodes()
	guids := make([]ids.ID, objects)
	for i := range guids {
		guids[i] = cfg.Spec.Hash(fmt.Sprintf("planet-%07d", i))
		if err := members[wrng.Intn(len(members))].Publish(guids[i], nil); err != nil {
			panic(err)
		}
	}

	e := netsim.NewEngine(subSeed(seed, "engine"))
	e.SetServiceTime(virtualService)
	net.AttachEngine(e)

	// Per-epoch accumulators, attributed by scheduling epoch and written only
	// from engine ops — which run one at a time, so plain fields suffice.
	// Rows are emitted after Run: an op scheduled late in an epoch may finish
	// (and count) past the boundary snapshot, and must not be lost.
	type epochAcc struct {
		joins, jfail, leaves, crashes, maint int
		maintMsgs                            int // sweep + batched republish traffic
		avail                                stats.Ratio
		hops, vlat                           stats.Summary
		live                                 int     // members at the boundary snapshot
		clock                                float64 // virtual clock at the snapshot
		events                               uint64  // cumulative engine events at the snapshot
	}
	acc := make([]epochAcc, epochs)

	crng := subRNG(seed, "churn")
	joinMean := float64(baseNodes) / 256
	sched := workload.PoissonChurn(epochs, baseNodes, baseNodes/2,
		joinMean, joinMean/3, joinMean/3, crng)

	// The entire run is scheduled up front; every random decision is drawn
	// here, so the event heap's contents are a pure function of the seed.
	// Member-set indices resolve at execution time against the live slice.
	nextHost := baseNodes
	drawnIDs := map[ids.ID]bool{}
	maintPos := 0
	for ep := range sched {
		ep := ep
		t0 := float64(ep) * planetEpochLen
		// Churn lands in the first 80% of the epoch so multi-message ops
		// (joins walk many hops of virtual time) mostly settle before the
		// boundary snapshot; stragglers still count via the accumulators.
		for _, op := range sched[ep] {
			at := t0 + 1 + crng.Float64()*(planetEpochLen*0.8)
			if op.Join {
				if nextHost >= len(hosts) {
					continue
				}
				addr := hosts[nextHost]
				nextHost++
				id := cfg.Spec.Random(crng)
				for drawnIDs[id] || m.NodeByID(id) != nil {
					id = cfg.Spec.Random(crng)
				}
				drawnIDs[id] = true
				gwDraw := crng.Intn(1 << 30)
				e.At(at, func() {
					gw := members[gwDraw%len(members)]
					n, _, err := m.Join(gw, id, addr)
					if err != nil {
						// Delivery-time liveness at work: the gateway (or a
						// contact) died while this join was in flight.
						acc[ep].jfail++
						return
					}
					members = append(members, n)
					acc[ep].joins++
				})
			} else {
				crash := op.Crash
				vDraw := op.Victim
				e.At(at, func() {
					if len(members) <= baseNodes/2 {
						return // population floor
					}
					vi := vDraw % len(members)
					victim := members[vi]
					// Remove before the protocol runs: no later op may pick a
					// node that is already mid-departure.
					members[vi] = members[len(members)-1]
					members = members[:len(members)-1]
					if crash {
						m.Fail(victim)
						acc[ep].crashes++
					} else if victim.Leave(nil) == nil {
						acc[ep].leaves++
					}
				})
			}
		}

		// Staggered soft-state maintenance: 1/planetMaintDiv of the overlay
		// per epoch, one op per node so each sweep+republish interleaves with
		// everything else instead of monopolising the virtual timeline.
		window := baseNodes/planetMaintDiv + 1
		for w := 0; w < window; w++ {
			at := t0 + 5 + float64(w)*(planetEpochLen*0.8)/float64(window)
			e.At(at, func() {
				n := members[maintPos%len(members)]
				maintPos++
				var mc netsim.Cost
				n.SweepDead(&mc)
				n.RepublishAll(&mc) // batched: one message per distinct next hop
				acc[ep].maint++
				acc[ep].maintMsgs += mc.Messages()
			})
		}

		// Zipf query mix, spread across the epoch.
		mix := workload.ZipfQueries(queries, 1<<30, objects, 1.2, wrng)
		for q := 0; q < queries; q++ {
			cDraw := mix.Clients[q]
			guid := guids[mix.Objects[q]]
			at := t0 + 0.5 + wrng.Float64()*(planetEpochLen*0.9)
			e.At(at, func() {
				client := members[cDraw%len(members)]
				var cost netsim.Cost
				res := client.Locate(guid, &cost)
				acc[ep].avail.Observe(res.Found)
				if res.Found {
					acc[ep].hops.AddInt(res.Hops)
					acc[ep].vlat.Add(cost.VirtualLatency())
				}
			})
		}

		// Boundary snapshot (population, clock, cumulative events).
		e.At(t0+planetEpochLen, func() {
			acc[ep].live = len(members)
			acc[ep].clock = e.Now()
			acc[ep].events = e.Stats().Events
		})
	}

	e.Run()

	for ep := range acc {
		a := &acc[ep]
		p50, p95, p99 := 0.0, 0.0, 0.0
		if a.vlat.N() > 0 {
			p50, p95, p99 = a.vlat.Quantile(0.5), a.vlat.Quantile(0.95), a.vlat.Quantile(0.99)
		}
		t.AddRow(baseNodes, ep+1, a.live, a.joins, a.jfail, a.leaves, a.crashes,
			a.maint, a.maintMsgs, a.avail.String(), a.hops.Mean(), p50, p95, p99,
			a.clock, fmt.Sprint(a.events))
	}
}
