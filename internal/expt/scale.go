package expt

import (
	"fmt"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/scenario"
)

// scaleChurnDef (E-scale) is the substrate-scale churn scenario: a
// transit-stub network of tens of thousands of points — representable only
// because graph metrics above metric.DenseLimit are computed on demand
// instead of materialising an n×n matrix — hosting an overlay that is grown
// statically, then driven through epochs of Poisson join/leave/crash churn
// with a Zipf query mix measured after each epoch. Per epoch it reports the
// live population, the churn applied, and availability / mean hops / mean
// stretch over the query mix.
//
// Two cells (quarter scale and full scale) so the runner's shared pool has
// something to overlap; each cell replays its timeline serially through
// scenario.Driver, so output is byte-identical for any -workers value.
func scaleChurnDef(points, nodes, epochs, queries int) Def {
	d := Def{
		Name: "ScaleChurn",
		Table: Table{
			Title: "E-scale: churn at substrate scale (transit-stub, on-demand metric)",
			Note:  "per-epoch availability/hops/stretch under Poisson join/leave/crash churn",
			Header: []string{"points", "epoch", "live", "joins", "leaves", "crashes",
				"objects", "avail", "mean hops", "mean stretch"},
		},
	}
	type cellParams struct{ points, nodes, queries int }
	cells := []cellParams{
		{points / 4, nodes / 4, queries / 2},
		{points, nodes, queries},
	}
	for _, cp := range cells {
		cp := cp
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("points=%d", cp.points), Run: func(seed int64, t *Table) {
			runScaleCell(seed, t, cp.points, cp.nodes, epochs, cp.queries)
		}})
	}
	return d
}

// runScaleCell replays one epoch-per-phase churn timeline through Tapestry on
// the stub points of a transit-stub network and appends one row per epoch.
func runScaleCell(seed int64, t *Table, points, baseNodes, epochs, queries int) {
	rng := subRNG(seed, "topology")
	space := metric.NewTransitStub(metric.ScaledTransitStub(points), rng)
	labels := metric.Regions(space)

	// Overlay hosts live on stub points only; the shuffled order past the
	// base population is the join reserve.
	var hosts []netsim.Addr
	for a := 0; a < space.Size(); a++ {
		if labels[a] >= 0 {
			hosts = append(hosts, netsim.Addr(a))
		}
	}
	baseNodes = max(8, min(baseNodes, len(hosts)/2))
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })

	// Size the on-demand row cache to the overlay working set: every live
	// node is a message source, churn adds more over time.
	if gs, ok := space.(*metric.GraphSpace); ok {
		gs.SetRowCacheCap(baseNodes + baseNodes/2 + 64)
	}

	joinMean := float64(baseNodes) / 48
	b := scenario.New("scale")
	for ep := 0; ep < epochs; ep++ {
		b.At(float64(ep),
			scenario.Phase{Name: fmt.Sprint(ep + 1)},
			scenario.Churn{JoinMean: joinMean, LeaveMean: joinMean / 3, CrashMean: joinMean / 3},
			scenario.Maintain{},
			scenario.Queries{Count: queries})
	}
	// Objects have one replica each and servers are fair game, so an object
	// whose server leaves or crashes is simply lost: availability genuinely
	// decays with churn. TTL 1 lets each epoch's maintenance pass fully
	// retire the pointers to departed servers before the storm.
	objects := baseNodes / 2
	replay{
		space: space, hosts: hosts, n: baseNodes, objects: objects, ttl: 1,
		timeline: b.MustBuild(),
	}.run(seed, systems([]string{"tapestry"}, nil), func(_ system, phases []scenario.PhaseReport) {
		for _, r := range phases {
			t.AddRow(space.Size(), r.Phase, r.Live, r.Joins, r.Leaves, r.Crashes,
				objects, located(r), r.MeanHops, r.MeanStretch)
		}
	})
}
