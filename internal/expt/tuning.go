package expt

import (
	"fmt"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/stats"
)

// continualOptimizationDef (E16) reproduces Section 6.4: after network-
// distance drift degrades the tables (simulated by demoting every primary),
// the refresh mechanisms restore locality — measured as query stretch before
// degradation, after, and after each tuning pass. A single cell: the stages
// are a causal chain over one mesh.
func continualOptimizationDef(n int) Def {
	d := Def{
		Name: "ContinualOptimization",
		Table: Table{
			Title:  "Continual optimization (§6.4): recovering locality after route drift",
			Header: []string{"stage", "P2 violations", "mean stretch", "locate success"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		cfg := defaultTapConfig()
		env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), true)
		m := env.mesh

		guids := make([]ids.ID, 12)
		serverOf := make([]int, 12)
		for i := range guids {
			guids[i] = exptSpec.Hash(fmt.Sprintf("tune-%d", i))
			serverOf[i] = (i * 7) % len(env.nodes)
			if err := env.nodes[serverOf[i]].Publish(guids[i], nil); err != nil {
				panic(err)
			}
		}
		measure := func(stage string) {
			var str stats.Summary
			var ok stats.Ratio
			for i, g := range guids {
				srv := env.nodes[serverOf[i]]
				for q := 0; q < 8; q++ {
					client := env.nodes[(serverOf[i]+q*11+3)%len(env.nodes)]
					if client == srv {
						continue
					}
					var cost netsim.Cost
					res := client.Locate(g, &cost)
					ok.Observe(res.Found)
					if res.Found {
						if direct := env.net.Distance(client.Addr(), srv.Addr()); direct > 0 {
							str.Add(cost.Distance() / direct)
						}
					}
				}
			}
			t.AddRow(stage, len(m.AuditProperty2()), str.Mean(), ok.String())
		}

		measure("baseline")
		// Drift: demote every primary by inflating its recorded distance.
		for _, node := range env.nodes {
			node.DegradePrimariesForTest()
		}
		measure("after route drift")
		m.TuneEpoch(nil)
		measure("after TuneEpoch (reorder+gossip)")
		// The §4.2 engine refresh: re-run the nearest-neighbor search from
		// each node's current contacts, no multicast required.
		for _, node := range env.nodes {
			_ = node.RefineTable(nil)
		}
		for _, node := range env.nodes {
			node.OptimizeObjectPtrs(nil)
		}
		measure("after engine refine (§4.2 search)")
		for _, node := range env.nodes {
			_ = node.ReacquireTable(nil)
		}
		measure("after full reacquire")
	}})
	return d
}
