package expt

import (
	"fmt"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/stats"
)

// E-repair: repair quality under failures. The paper's dynamic-network
// guarantees (§4.2/Theorem 3, §5.2) assume neighbor tables are rebuilt from
// the *closest* qualifying nodes. This experiment kills a slice of the mesh,
// lets every survivor sweep-and-repair, and checks each refilled slot
// against an oracle scan of the whole live population: did repair install
// the true closest candidate?

// repairStats aggregates one run.
type repairStats struct {
	Holes      int // slots emptied by the failures
	Refillable int // of those, slots some live candidate exists for
	Refilled   int // refillable slots that hold at least one entry again
	Matched    int // refilled slots whose primary is oracle-closest
	P1         int // Property 1 violations after the sweep
	RepairMsgs int // messages spent by the sweeps (probe + repair traffic)
	LocateOK   stats.Ratio
	Stretch    stats.Summary
}

// MatchFrac is the fraction of refilled holes that got the oracle-closest
// candidate as primary.
func (r repairStats) MatchFrac() float64 {
	if r.Refilled == 0 {
		return 1
	}
	return float64(r.Matched) / float64(r.Refilled)
}

// oracleSlotClosest returns the distance of the closest live qualifying node
// for slot (level, digit) of x, and whether any exists.
func oracleSlotClosest(m *core.Mesh, x *core.Node, level int, digit ids.Digit) (float64, bool) {
	best, found := 0.0, false
	for _, peer := range m.Nodes() {
		if peer.ID().Equal(x.ID()) {
			continue
		}
		if ids.CommonPrefixLen(x.ID(), peer.ID()) < level || peer.ID().Digit(level) != digit {
			continue
		}
		d := m.Net().Distance(x.Addr(), peer.Addr())
		if !found || d < best {
			best, found = d, true
		}
	}
	return best, found
}

// runRepair builds a mesh, kills non-server nodes, sweeps every survivor, and
// measures repair quality against the oracle plus post-churn availability
// and stretch.
func runRepair(n, kills, queries int, seed int64) repairStats {
	env := buildTapestry(ringSpace(n), n, defaultTapConfig(), subSeed(seed, "build"), true)
	m := env.mesh
	rng := subRNG(seed, "workload")

	// Publish objects from rng-chosen servers (kept alive: their departure
	// would measure replica loss, not repair quality).
	objects := 16
	guids := make([]ids.ID, objects)
	serverIdx := make([]int, objects)
	servers := map[string]bool{}
	for i := range guids {
		guids[i] = exptSpec.Hash(fmt.Sprintf("repair-%d", i))
		serverIdx[i] = rng.Intn(len(env.nodes))
		if err := env.nodes[serverIdx[i]].Publish(guids[i], nil); err != nil {
			panic(err)
		}
		servers[env.nodes[serverIdx[i]].ID().String()] = true
	}

	// Victims: kills distinct non-servers. The kill count is capped at the
	// eligible population — rejection sampling over zero eligibles would
	// never terminate.
	eligible := len(env.nodes) - len(servers)
	if kills > eligible {
		kills = eligible
	}
	victims := map[string]bool{}
	var victimNodes []*core.Node
	for len(victimNodes) < kills {
		cand := env.nodes[rng.Intn(len(env.nodes))]
		key := cand.ID().String()
		if servers[key] || victims[key] {
			continue
		}
		victims[key] = true
		victimNodes = append(victimNodes, cand)
	}

	// Predict the holes: slots of survivors whose every entry is a victim
	// become empty the moment the corpses are swept out.
	type holeRef struct {
		node  *core.Node
		level int
		digit ids.Digit
	}
	var holes []holeRef
	for _, x := range m.Nodes() {
		if victims[x.ID().String()] {
			continue
		}
		t := x.Table()
		for l := 0; l < t.Levels(); l++ {
			for d := 0; d < t.Base(); d++ {
				set := t.Set(l, ids.Digit(d))
				if len(set) == 0 {
					continue
				}
				all := true
				for _, e := range set {
					if !victims[e.ID.String()] {
						all = false
						break
					}
				}
				if all {
					holes = append(holes, holeRef{x, l, ids.Digit(d)})
				}
			}
		}
	}

	for _, v := range victimNodes {
		m.Fail(v)
	}
	var repairCost netsim.Cost
	for _, x := range m.Nodes() {
		x.SweepDead(&repairCost)
	}

	st := repairStats{Holes: len(holes), RepairMsgs: repairCost.Messages()}
	for _, h := range holes {
		best, ok := oracleSlotClosest(m, h.node, h.level, h.digit)
		if !ok {
			continue // a legitimate hole now: no qualifying node survives
		}
		st.Refillable++
		set := h.node.Table().Set(h.level, h.digit)
		if len(set) == 0 {
			continue
		}
		st.Refilled++
		if set[0].Distance <= best+1e-9 {
			st.Matched++
		}
	}
	st.P1 = len(m.AuditProperty1())

	// Republish (the soft-state epoch) so objects rooted at corpses recover,
	// then measure availability and stretch from random vantage points.
	m.RunMaintenanceEpoch(nil)
	nodes := m.Nodes() // membership is static for the whole query phase
	for q := 0; q < queries; q++ {
		oi := rng.Intn(objects)
		client := nodes[rng.Intn(len(nodes))]
		server := env.nodes[serverIdx[oi]]
		if client.ID().Equal(server.ID()) {
			continue
		}
		var c netsim.Cost
		res := client.Locate(guids[oi], &c)
		st.LocateOK.Observe(res.Found)
		if res.Found {
			if direct := env.net.Distance(client.Addr(), server.Addr()); direct > 0 {
				st.Stretch.Add(c.Distance() / direct)
			}
		}
	}
	return st
}

// repairQualityDef (E-repair) runs the failure/repair scenario and reports
// repair quality against the oracle scan, repair traffic, and post-churn
// availability and stretch. One cell: the oracle scan aggregates over the
// whole mesh.
func repairQualityDef(n, kills, queries int) Def {
	d := Def{
		Name: "RepairQuality",
		Table: Table{
			Title:  "Repair quality after failures (E-repair; §4.2 engine)",
			Note:   "match = refilled hole whose primary is the oracle-closest live candidate",
			Header: []string{"repair", "holes", "refillable", "refilled", "matched", "match %", "P1 viol", "repair msgs", "locate success", "mean stretch"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d kills=%d", n, kills), Run: func(seed int64, t *Table) {
		st := runRepair(n, kills, queries, seed)
		matchPct := "-" // nothing refilled: a 100% would be vacuous
		if st.Refilled > 0 {
			matchPct = trimFloat(100 * st.MatchFrac())
		}
		t.AddRow("nearest", st.Holes, st.Refillable, st.Refilled, st.Matched,
			matchPct, st.P1, st.RepairMsgs, st.LocateOK.String(), st.Stretch.Mean())
	}})
	return d
}
