package expt

import (
	"fmt"
	"sort"

	"tapestry/internal/metric"
	"tapestry/internal/scenario"
	"tapestry/internal/stats"
)

// E-faceoff: every protocol, one workload. The paper's argument is
// comparative, so this is the experiment the unified overlay interface
// exists for: all registered protocols replay an IDENTICALLY SEEDED scenario
// timeline — same addresses, same object placement, and per epoch the same
// Poisson churn draws (origin servers spared: their departure would measure
// replica loss, not routing health), one maintenance pass and the same Zipf
// query storm — and each applies exactly the slice of it its capability set
// supports (declined operations are counted, never faked). Per protocol it
// reports the churn applied, availability, mean hops, mean stretch (distance
// traveled over the direct client→replica distance) and the storms' load
// concentration across members (max/mean and p99 of messages delivered per
// node).
//
// Expected shape: Tapestry rides out full churn with soft-state republish
// and keeps both stretch and load low; Chord survives churn structurally but
// loses references stored at crashed owners (no republish) and pays
// locality-blind stretch; CAN joins only; Pastry is a static snapshot;
// the directory is hop-optimal with catastrophic load concentration.
//
// Determinism: each cell is strictly serial and the driver draws every
// binding from labeled streams of the cell seed, so output is byte-identical
// for any -workers value (pinned by CI).

// runFaceoffCell replays the shared timeline through every selected protocol
// and appends one row per protocol.
func runFaceoffCell(seed int64, t *Table, n, objects, epochs, queries int, protocols []string) {
	joinMean := float64(n) / 20
	reserveN := epochs*int(joinMean)*3 + 16
	space := metric.NewRing(4 * (n + reserveN))
	b := scenario.New("faceoff").At(0, scenario.Phase{Name: "churn"})
	for ep := 0; ep < epochs; ep++ {
		b.At(float64(ep),
			scenario.Churn{JoinMean: joinMean, LeaveMean: joinMean / 3, CrashMean: joinMean / 3, SpareServers: true},
			scenario.Maintain{},
			scenario.Queries{Count: queries})
	}
	replay{
		space: space, hosts: pickAddrs(space, n+reserveN, subRNG(seed, "addrs")),
		n: n, objects: objects, load: true, timeline: b.MustBuild(),
	}.run(seed, systems(protocols, nil), func(sys system, phases []scenario.PhaseReport) {
		r := phases[0]
		// The summary takes the loads in sorted order, not map order: float
		// accumulation order is part of the byte-identical-output contract.
		loads := make([]int, 0, len(r.StormLoad))
		for _, msgs := range r.StormLoad {
			loads = append(loads, int(msgs))
		}
		sort.Ints(loads)
		var load stats.Summary
		for _, msgs := range loads {
			load.AddInt(msgs)
		}
		maxMean := 0.0
		if load.Mean() > 0 {
			maxMean = load.Max() / load.Mean()
		}
		t.AddRow(n, sys.label, sys.caps.String(), r.Joins, r.Leaves, r.Crashes, r.Declined,
			located(r), r.MeanHops, r.MeanStretch, maxMean, load.Quantile(0.99))
	})
}

// faceoffDef (E-faceoff) runs the cross-protocol scenario at half and full
// scale. One cell per scale: the protocols of a cell must share one derived
// seed (identical scenario), so the protocol loop is serial inside the cell.
func faceoffDef(n, objects, epochs, queries int, protocols []string) Def {
	d := Def{
		Name: "Faceoff",
		Table: Table{
			Title: "E-faceoff: identically-seeded churn + Zipf storm across all overlay protocols",
			Note: "caps-gated: each protocol applies the slice of the shared scenario timeline it supports " +
				"(declined = churn operations and maintenance passes refused honestly); zipf s=1.2, load = storm msgs delivered per member",
			Header: []string{"n", "protocol", "caps", "joins", "leaves", "crashes", "declined",
				"avail", "mean hops", "mean stretch", "load max/mean", "load p99"},
		},
	}
	type cellParams struct{ n, objects, queries int }
	cells := []cellParams{
		{n / 2, objects / 2, queries / 2},
		{n, objects, queries},
	}
	for _, cp := range cells {
		cp := cp
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", cp.n), Run: func(seed int64, t *Table) {
			runFaceoffCell(seed, t, cp.n, cp.objects, epochs, cp.queries, protocols)
		}})
	}
	return d
}
