package expt

import (
	"fmt"
	"math/rand"
	"sort"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// E-faceoff: every protocol, one workload. The paper's argument is
// comparative, so this is the experiment the unified overlay interface
// exists for: all registered protocols are driven through an IDENTICALLY
// SEEDED scenario — same addresses, same object placement, same Poisson
// churn schedule, same per-epoch Zipf query storms — and each applies
// exactly the slice of it its capability set supports (declined operations
// are counted, never faked). Per protocol it reports the churn applied,
// availability, mean hops, mean stretch (distance traveled over the direct
// client→replica distance) and the query-phase load concentration across
// members (max/mean and p99 of messages delivered per node).
//
// Expected shape: Tapestry rides out full churn with soft-state republish
// and keeps both stretch and load low; Chord survives churn structurally but
// loses references stored at crashed owners (no republish) and pays
// locality-blind stretch; CAN joins only; Pastry is a static snapshot;
// the directory is hop-optimal with catastrophic load concentration.
//
// Determinism: each cell is strictly serial and every per-protocol stream is
// re-derived from the same labeled sub-seeds, so output is byte-identical
// for any -workers value (pinned by CI).

// ValidateProtocols rejects unknown protocol names up front — a typo'd
// -protocol flag must not cost a full suite run before panicking mid-cell.
func ValidateProtocols(names []string) error {
	for _, n := range names {
		if _, err := overlay.Lookup(n); err != nil {
			return err
		}
	}
	return nil
}

// faceoffProtocols resolves the protocol selection: nil/empty means every
// registered protocol, in registry order.
func faceoffProtocols(selected []string) []string {
	if len(selected) == 0 {
		out := make([]string, 0, len(overlay.Builders()))
		for _, b := range overlay.Builders() {
			out = append(out, b.Name)
		}
		return out
	}
	return selected
}

// runFaceoffCell drives every selected protocol through the shared scenario
// and appends one row per protocol.
func runFaceoffCell(seed int64, t *Table, n, objects, epochs, queries int, protocols []string) {
	joinMean := float64(n) / 20
	reserveCount := epochs*int(joinMean)*3 + 16
	space := metric.NewRing(4 * (n + reserveCount))
	arng := rand.New(rand.NewSource(subSeed(seed, "addrs")))
	all := pickAddrs(space, n+reserveCount, arng)
	base, reserve := all[:n], all[n:]

	place := workload.UniformPlacement(objects, 1, n, subRNG(seed, "place"))
	isServer := make(map[int]bool, objects)
	for i := range place.Servers {
		isServer[place.Servers[i][0]] = true
	}
	sched := workload.PoissonChurn(epochs, n, n/2, joinMean, joinMean/3, joinMean/3,
		subRNG(seed, "churn"))
	bseed := subSeed(seed, "build")

	for _, name := range protocols {
		env := buildOverlay(name, space, base, overlay.Config{Seed: bseed, Static: true})
		caps := env.proto.Caps()
		net := env.proto.Net()
		net.EnableLoadTracking()
		for i := range place.Names {
			env.publish(place.Servers[i][0], place.Names[i])
		}

		departed := make([]bool, n)
		// pickVictim maps the schedule's victim draw onto the base
		// population, skipping replica servers (their departure would measure
		// replica loss, not routing health) and already-departed members —
		// the same mapping for every protocol, so leave-capable protocols
		// remove identical victims.
		pickVictim := func(v int) (int, bool) {
			idx := v % n
			for k := 0; k < n; k++ {
				j := (idx + k) % n
				if !departed[j] && !isServer[j] {
					return j, true
				}
			}
			return 0, false
		}

		joins, leaves, crashes, declined := 0, 0, 0, 0
		nextReserve := 0
		var avail stats.Ratio
		var hops, stretch stats.Summary
		load := map[netsim.Addr]int64{}

		for epoch := 0; epoch < epochs; epoch++ {
			for _, op := range sched[epoch] {
				switch {
				case op.Join:
					if !caps.Has(overlay.CapJoin) {
						declined++
						continue
					}
					if nextReserve >= len(reserve) {
						continue
					}
					if _, _, err := env.proto.Join(reserve[nextReserve]); err != nil {
						panic(fmt.Sprintf("faceoff: %s join: %v", name, err))
					}
					nextReserve++
					joins++
				case op.Crash:
					if !caps.Has(overlay.CapFail) {
						declined++
						continue
					}
					j, ok := pickVictim(op.Victim)
					if !ok {
						continue
					}
					if err := env.proto.Fail(env.nodes[j]); err != nil {
						panic(fmt.Sprintf("faceoff: %s fail: %v", name, err))
					}
					departed[j] = true
					crashes++
				default:
					if !caps.Has(overlay.CapLeave) {
						declined++
						continue
					}
					j, ok := pickVictim(op.Victim)
					if !ok {
						continue
					}
					if _, err := env.proto.Leave(env.nodes[j]); err != nil {
						panic(fmt.Sprintf("faceoff: %s leave: %v", name, err))
					}
					departed[j] = true
					leaves++
				}
			}
			if caps.Has(overlay.CapMaintain) {
				if _, err := env.proto.Maintain(); err != nil {
					panic(fmt.Sprintf("faceoff: %s maintain: %v", name, err))
				}
			}

			// The Zipf storm. The stream is re-derived from (seed, epoch) for
			// every protocol, so each sees the same draws; clients come from
			// the adapter's own live-member list (insertion order, so
			// deterministic), and load is measured as the query phase's delta
			// in per-node deliveries.
			members := env.proto.Handles()
			qrng := rand.New(rand.NewSource(stats.StreamSeed(seed, "queries", epoch)))
			mix := workload.ZipfQueries(queries, len(members), objects, 1.2, qrng)
			tracked := make([]netsim.Addr, 0, len(members)+1)
			for _, h := range members {
				tracked = append(tracked, h.Addr())
			}
			if server, ok := overlay.DirectoryServer(env.proto); ok {
				tracked = append(tracked, server)
			}
			before := make(map[netsim.Addr]int64, len(tracked))
			for _, a := range tracked {
				before[a] = net.LoadAt(a)
			}
			for q := range mix.Clients {
				client := members[mix.Clients[q]]
				oi := mix.Objects[q]
				res, cost := env.proto.Locate(client, place.Names[oi])
				avail.Observe(res.Found)
				if !res.Found {
					continue
				}
				hops.AddInt(res.Hops)
				server := base[place.Servers[oi][0]]
				if direct := space.Distance(int(client.Addr()), int(server)); direct > 0 {
					stretch.Add(cost.Distance() / direct)
				}
			}
			for _, a := range tracked {
				load[a] += net.LoadAt(a) - before[a]
			}
		}

		// Summaries iterate addresses in sorted order: float accumulation
		// order is part of the byte-identical-output contract.
		addrs := make([]int, 0, len(load))
		for a := range load {
			addrs = append(addrs, int(a))
		}
		sort.Ints(addrs)
		var loadS stats.Summary
		for _, a := range addrs {
			loadS.AddInt(int(load[netsim.Addr(a)]))
		}
		maxMean := 0.0
		if loadS.N() > 0 && loadS.Mean() > 0 {
			maxMean = loadS.Max() / loadS.Mean()
		}
		t.AddRow(n, name, caps.String(), joins, leaves, crashes, declined,
			avail.String(), hops.Mean(), stretch.Mean(), maxMean, loadS.Quantile(0.99))
	}
}

// faceoffDef (E-faceoff) runs the cross-protocol scenario at half and full
// scale. One cell per scale: the protocols of a cell must share one derived
// seed (identical scenario), so the protocol loop is serial inside the cell.
func faceoffDef(n, objects, epochs, queries int, protocols []string) Def {
	d := Def{
		Name: "Faceoff",
		Table: Table{
			Title: "E-faceoff: identically-seeded churn + Zipf storm across all overlay protocols",
			Note: "caps-gated: each protocol applies the slice of the shared churn schedule it supports " +
				"(declined = operations refused honestly); zipf s=1.2, load = query-phase msgs delivered per member",
			Header: []string{"n", "protocol", "caps", "joins", "leaves", "crashes", "declined",
				"avail", "mean hops", "mean stretch", "load max/mean", "load p99"},
		},
	}
	selected := faceoffProtocols(protocols)
	type cellParams struct{ n, objects, queries int }
	cells := []cellParams{
		{n / 2, objects / 2, queries / 2},
		{n, objects, queries},
	}
	for _, cp := range cells {
		cp := cp
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", cp.n), Run: func(seed int64, t *Table) {
			runFaceoffCell(seed, t, cp.n, cp.objects, epochs, cp.queries, selected)
		}})
	}
	return d
}
