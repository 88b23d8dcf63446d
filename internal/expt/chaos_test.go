package expt

import "testing"

// TestChaosReplicationSurvivesPartition pins the PR's headline acceptance
// claim: under the identically seeded healing-partition scenario, the full
// availability tier (r=4 salted roots, k=3 replicas) locates strictly more
// of the partitioned-phase queries than the unreplicated baseline —
// region-diversified replicas leave copies on the minority side of a
// region-aligned cut, and multi-root probing reaches them.
func TestChaosReplicationSurvivesPartition(t *testing.T) {
	const n, objects, queries, stampede = 64, 32, 192, 12
	var tbl Table
	rows := runChaosCell(7, &tbl, "healing-partition", n, objects, queries, stampede,
		[]string{"tapestry"})

	pick := func(config, phase string) (chaosRow, bool) {
		for _, r := range rows {
			if r.config == config && r.phase == phase {
				return r, true
			}
		}
		return chaosRow{}, false
	}
	lo, ok1 := pick("tapestry r=1 k=1", "partitioned")
	hi, ok2 := pick("tapestry r=4 k=3", "partitioned")
	if !ok1 || !ok2 {
		t.Fatalf("partitioned-phase rows missing: %v", rows)
	}
	if lo.queries != queries || hi.queries != queries {
		t.Fatalf("partitioned-phase query counts %d/%d, want %d (shared-timeline contract broken)",
			lo.queries, hi.queries, queries)
	}
	if lo.found == queries {
		t.Fatalf("baseline lost nothing under the partition — the scenario exercises nothing:\n%s",
			tbl.String())
	}
	if hi.found <= lo.found {
		t.Fatalf("r=4,k=3 located %d/%d under the partition vs %d/%d at r=1,k=1 — replication bought nothing:\n%s",
			hi.found, queries, lo.found, queries, tbl.String())
	}
	// Both configurations must recover once the cut heals and maintenance runs.
	for _, cfg := range []string{"tapestry r=1 k=1", "tapestry r=4 k=3"} {
		base, _ := pick(cfg, "baseline")
		part, _ := pick(cfg, "partitioned")
		heal, ok := pick(cfg, "healed")
		if !ok {
			t.Fatalf("%s: healed phase missing", cfg)
		}
		if base.found != base.queries {
			t.Errorf("%s: baseline %d/%d, want flawless", cfg, base.found, base.queries)
		}
		if heal.found <= part.found {
			t.Errorf("%s: healed phase located %d/%d, no better than partitioned %d/%d",
				cfg, heal.found, heal.queries, part.found, part.queries)
		}
	}
}

// TestChaosTwinReplay pins E-chaos determinism: two same-seed runs of the
// whole suite are byte-identical (the workers knob never reaches inside a
// cell, so this plus the runner's cell-order merge is the -workers
// invariance pinned by CI).
func TestChaosTwinReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite twin replay is the long pole; -short skips it")
	}
	run := func() string {
		return chaosDef(48, 24, 96, 8, nil, nil).Run(17, 1).String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("E-chaos twin runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestChaosConfigSelection pins the -protocol filter and scenario
// validation surface used by the CLIs.
func TestChaosConfigSelection(t *testing.T) {
	all := systems(nil, chaosTiers)
	if len(all) < 6 {
		t.Fatalf("default configs = %d, want every protocol plus both tapestry tiers: %v", len(all), all)
	}
	taps := systems([]string{"tapestry"}, chaosTiers)
	if len(taps) != 2 {
		t.Fatalf("tapestry-only selection = %v, want both replication tiers", taps)
	}
	if got := systems([]string{"chord"}, chaosTiers); len(got) != 1 || got[0].protocol != "chord" {
		t.Fatalf("chord-only selection = %v", got)
	}
	if got := systems(nil, nil); len(got) != 5 || got[0].label != "tapestry" {
		t.Fatalf("untiered selection = %v, want one column per protocol", got)
	}
	if err := ValidateScenarios([]string{"blackout", "healing-partition"}); err != nil {
		t.Fatalf("valid scenarios rejected: %v", err)
	}
	if err := ValidateScenarios([]string{"no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
