package expt

import (
	"fmt"
	"math"

	"tapestry/internal/scenario"
)

// E-nines: the availability tier under fire. The replication knobs —
// Observation 2's salted root set r and the k-replica placement — exist to
// buy nines of query success when servers crash, so this experiment measures
// exactly that: a scenario timeline of crash-only Poisson churn (victims
// explicitly MAY be origin servers — losing servers is the event replication
// defends against) and Zipf query storms, replayed on the discrete-event
// virtual clock and swept over r ∈ {1,2,4} × k ∈ {1,3} against the Chord and
// directory baselines through the overlay registry. Each epoch's storm
// precedes its maintenance pass: queries meet the crashes unrepaired, which
// is what the tier is for — repair first, and republish re-deposits every
// surviving pointer before a query can tell r=1 from r=4.
//
// Per configuration it reports availability as "nines" (-log10 of the
// failure rate; a run with zero failures is floored at the resolution the
// query count can certify, log10(total)) plus the virtual-time latency tail
// (Cost.VirtualLatency percentiles), so the r×k sweep shows both what the
// replication buys and what the extra probes cost.
//
// Determinism: one cell, strictly serial inside; every configuration replays
// the identical timeline from the same labeled sub-seeds and the engine
// resumes one operation at a time, so output is byte-identical for any
// -workers value (pinned by CI).

// ninesTiers is the r × k sweep, k-major.
var ninesTiers = [][2]int{{1, 1}, {2, 1}, {4, 1}, {1, 3}, {2, 3}, {4, 3}}

// ninesRow is one configuration's aggregate, returned for the acceptance
// test that pins nines(r=4,k=3) > nines(r=1,k=1).
type ninesRow struct {
	config  string
	crashes int
	total   int // issued queries
	nines   float64
}

// ninesOf converts a success count into nines of availability. A flawless
// run is reported at the resolution the sample size can certify —
// log10(total) — rather than infinity.
func ninesOf(ok, total int) float64 {
	if total == 0 {
		return 0
	}
	if ok == total {
		return math.Log10(float64(total))
	}
	return -math.Log10(1 - float64(ok)/float64(total))
}

// runNinesCell replays the shared crash + query timeline through every
// configuration and appends one row per configuration.
func runNinesCell(seed int64, t *Table, n, objects, epochs, queries int) []ninesRow {
	space := ringSpace(n)
	b := scenario.New("nines").At(0, scenario.Phase{Name: "crash-churn"})
	for ep := 0; ep < epochs; ep++ {
		b.At(float64(ep),
			scenario.Churn{CrashMean: float64(n) / 24},
			scenario.Queries{Count: queries},
			scenario.Maintain{})
	}
	var rows []ninesRow
	replay{
		space: space, hosts: pickAddrs(space, n, subRNG(seed, "addrs")),
		n: n, objects: objects,
		// Pointers outlive the run: refresh is load, and the decay this
		// experiment studies is crash loss, not TTL expiry.
		ttl:     int64(epochs) + 2,
		virtual: true, timeline: b.MustBuild(),
	}.run(seed, systems([]string{"tapestry", "chord", "directory"}, ninesTiers),
		func(sys system, phases []scenario.PhaseReport) {
			r := phases[0]
			nines := ninesOf(r.Found, r.Queries)
			rows = append(rows, ninesRow{config: sys.label, crashes: r.Crashes, total: r.Queries, nines: nines})
			t.AddRow(n, sys.label, sys.roots, sys.replicas, r.Crashes, r.Declined,
				fmt.Sprintf("%d/%d", r.Found, r.Queries), nines,
				r.VLat.Quantile(0.5), r.VLat.Quantile(0.95), r.VLat.Quantile(0.99))
		})
	return rows
}

// ninesDef (E-nines) sweeps the availability knobs under identical crash
// churn. One cell: the configurations must share one derived seed (identical
// scenario), so the configuration loop is serial inside it.
func ninesDef(n, objects, epochs, queries int) Def {
	d := Def{
		Name: "Nines",
		Table: Table{
			Title: "E-nines: availability (nines of query success) under crash churn, r x k sweep vs baselines",
			Note: "crash-only Poisson churn with origin servers eligible as victims; per epoch a zipf s=1.2 query storm " +
				"on the virtual clock, then one maintenance pass; declined = crashes and passes the protocol refuses; " +
				"nines = -log10(failure rate), capped at log10(queries) when flawless",
			Header: []string{"n", "config", "roots", "replicas", "crashes", "declined",
				"located", "nines", "vlat p50", "vlat p95", "vlat p99"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		runNinesCell(seed, t, n, objects, epochs, queries)
	}})
	return d
}
