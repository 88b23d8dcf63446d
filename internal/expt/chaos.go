package expt

import (
	"fmt"

	"tapestry/internal/metric"
	"tapestry/internal/scenario"
)

// E-chaos: the adversarial scenario suite. Where E-faceoff applies
// independent Poisson churn and E-nines applies crash-only churn, this
// experiment replays the named scenario.Scenario timelines — correlated
// region blackouts, region-aligned partitions that heal, seeded link loss
// and duplication ramps, flash crowds with join stampedes — through the
// scenario.Driver against every selected overlay protocol, on the virtual
// clock. Each cell is one named scenario; every configuration inside it
// replays the identical seeded timeline, so the rows are a controlled
// comparison of how each protocol (and each Tapestry replication setting)
// degrades and recovers, phase by phase.
//
// Determinism: cells are serial inside; the driver draws every binding from
// labeled streams of the cell seed, so output is byte-identical for any
// -workers value (pinned by CI).

// chaosTiers brackets Tapestry's replication tier: the acceptance test pins
// that r=4,k=3 buys strictly more availability than r=1,k=1 under the
// healing-partition scenario.
var chaosTiers = [][2]int{{1, 1}, {4, 3}}

// ValidateScenarios rejects unknown scenario names up front — a typo'd
// -chaos-scenario flag must not cost a suite run before panicking mid-cell.
func ValidateScenarios(names []string) error {
	for _, n := range names {
		if _, err := scenario.Named(n, scenario.DefaultSpec()); err != nil {
			return err
		}
	}
	return nil
}

// chaosRow is one (configuration, phase) aggregate, returned for the
// acceptance test.
type chaosRow struct {
	config, phase  string
	queries, found int
}

// runChaosCell replays one named scenario through every selected
// configuration and appends one row per (configuration, phase).
func runChaosCell(seed int64, t *Table, name string, n, objects, queries, stampede int, protocols []string) []chaosRow {
	// The join stampede plus a little headroom is the whole reserve demand:
	// restores rejoin at their original addresses, and the named suite has
	// no background Churn events.
	reserveN := stampede + 8
	// A transit-stub topology gives the scenarios their correlated geometry:
	// RegionBlackout kills a stub domain, Partition cuts region-aligned.
	space := metric.NewTransitStub(
		metric.ScaledTransitStub(4*(n+reserveN)), subRNG(seed, "topology"))
	s, err := scenario.Named(name, scenario.Spec{Queries: queries, Stampede: stampede})
	if err != nil {
		panic(fmt.Sprintf("chaos: %v", err))
	}
	var rows []chaosRow
	replay{
		space: space, hosts: pickAddrs(space, n+reserveN, subRNG(seed, "addrs")),
		n: n, objects: objects,
		// Pointers must survive the few scenario Maintain passes: the decay
		// under study is fault loss, not TTL expiry.
		ttl:     4,
		virtual: true, timeline: s,
	}.run(seed, systems(protocols, chaosTiers), func(sys system, phases []scenario.PhaseReport) {
		for _, r := range phases {
			t.AddRow(n, name, sys.label, r.Phase, r.Live,
				r.Joins+r.Restores, r.Leaves+r.Crashes, r.Declined, r.Failed,
				fmt.Sprintf("%d/%d", r.Found, r.Queries),
				r.MeanHops, r.MeanStretch, r.MaintainMsgs,
				r.Blocked, r.Lost, r.Duplicated)
			rows = append(rows, chaosRow{
				config: sys.label, phase: r.Phase,
				queries: r.Queries, found: r.Found,
			})
		}
	})
	return rows
}

// chaosDef (E-chaos) replays the named scenario suite across the overlay
// registry. One cell per scenario: the configurations of a cell must share
// one derived seed (identical timeline), so the configuration loop is
// serial inside it.
func chaosDef(n, objects, queries, stampede int, scenarios, protocols []string) Def {
	if len(scenarios) == 0 {
		scenarios = scenario.Names()
	}
	d := Def{
		Name: "Chaos",
		Table: Table{
			Title: "E-chaos: named adversarial scenarios (blackout, partition, lossy links, flash crowd) across overlay protocols",
			Note: "each cell replays one seeded scenario.Driver timeline identically per configuration; " +
				"caps-gated (declined = operations the protocol refuses honestly, failed = errored under fire); " +
				"located = found/issued per phase; blocked/lost/dup = netsim fault verdicts in the phase window",
			Header: []string{"n", "scenario", "config", "phase", "live", "joins", "down",
				"declined", "failed", "located", "hops", "stretch", "maint msgs",
				"blocked", "lost", "dup"},
		},
	}
	for _, name := range scenarios {
		name := name
		d.Cells = append(d.Cells, Cell{Label: name, Run: func(seed int64, t *Table) {
			runChaosCell(seed, t, name, n, objects, queries, stampede, protocols)
		}})
	}
	return d
}
