package expt

import (
	"fmt"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/scenario"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// Every experiment that churns an overlay and storms it with queries through
// overlay.Protocol — E-faceoff, E-nines, E-scale, E-chaos — describes the run
// as a scenario timeline and executes it here, on scenario.Driver. What is
// left to each experiment is its timeline, its systems and the rows it makes
// of the phase reports. (E-planet is the exception; planet.go says why.)

// system is one column of a comparison: a registered overlay protocol plus,
// for Tapestry, the availability knobs (zero = the protocol's default).
type system struct {
	label    string
	protocol string
	caps     overlay.Caps
	roots    int // salted roots r (Tapestry only)
	replicas int // replica servers k (Tapestry only)
}

// systems lists one column per registered protocol in registry order — every
// protocol when selected is empty, the named ones otherwise. Tapestry expands
// into one column per (r, k) tier; without tiers it is a single column at its
// defaults, like the rest.
func systems(selected []string, tiers [][2]int) []system {
	want := make(map[string]bool, len(selected))
	for _, s := range selected {
		want[s] = true
	}
	var out []system
	for _, b := range overlay.Builders() {
		switch {
		case len(selected) > 0 && !want[b.Name]:
		case b.Name == "tapestry" && len(tiers) > 0:
			for _, rk := range tiers {
				out = append(out, system{
					label:    fmt.Sprintf("tapestry r=%d k=%d", rk[0], rk[1]),
					protocol: b.Name, caps: b.Caps, roots: rk[0], replicas: rk[1],
				})
			}
		default:
			out = append(out, system{label: b.Name, protocol: b.Name, caps: b.Caps})
		}
	}
	return out
}

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

// virtualService is the per-message receiver service time (the inbound
// queue) of every virtual-time run, one value so their latency columns are
// comparable.
const virtualService = 0.0005

// replay is one membership-change-plus-query-storm run, minus the systems it
// is run against.
type replay struct {
	space    metric.Space
	hosts    []netsim.Addr // hosts[:n] are built; the rest is the join reserve
	n        int
	objects  int   // one replica each, on uniformly drawn built members
	ttl      int64 // Tapestry PointerTTL in maintenance passes (0 = default)
	virtual  bool  // replay on the discrete-event clock, at virtualService per message
	load     bool  // track per-address load, so phases report StormLoad
	timeline scenario.Scenario
}

// run drives every system through the replay and hands report each one's
// phases. All systems share the cell's labeled sub-seeds — same placement,
// same build seed (node i sits at hosts[i] in each), same engine and driver
// streams — so they see one identical seeded timeline and the rows are a
// controlled comparison. Setup (build, publish) runs in direct-call mode,
// zero virtual time by design; an engine attaches only for the replay.
func (r replay) run(seed int64, columns []system, report func(system, []scenario.PhaseReport)) {
	place := workload.UniformPlacement(r.objects, 1, r.n, subRNG(seed, "place"))
	bseed := subSeed(seed, "build")
	for _, sys := range columns {
		ocfg := overlay.Config{Seed: bseed, Static: true}
		if sys.protocol == "tapestry" {
			tc := defaultTapConfig()
			tc.Seed = bseed
			tc.RootSetSize, tc.Replicas, tc.PointerTTL = sys.roots, sys.replicas, r.ttl
			ocfg.Core = &tc
		}
		env := buildOverlay(sys.protocol, r.space, r.hosts[:r.n], ocfg)
		net := env.proto.Net()
		if r.load {
			net.EnableLoadTracking()
		}
		for i := range place.Names {
			env.publish(place.Servers[i][0], place.Names[i])
		}
		if r.virtual {
			e := netsim.NewEngine(subSeed(seed, "engine"))
			e.SetServiceTime(virtualService)
			net.AttachEngine(e)
		}
		drv, err := scenario.NewDriver(env.proto, env.nodes, scenario.Config{
			Seed:      subSeed(seed, "drive"),
			Placement: place,
			Reserve:   r.hosts[r.n:],
		})
		if err != nil {
			panic(fmt.Sprintf("%s: %v", sys.label, err))
		}
		phases, err := drv.Run(r.timeline)
		if err != nil {
			panic(fmt.Sprintf("%s replay %s: %v", sys.label, r.timeline.Name, err))
		}
		report(sys, phases)
	}
}

// located renders a phase's availability the way the per-epoch tables print
// it: found/issued (percent).
func located(p scenario.PhaseReport) string {
	r := stats.Ratio{Success: p.Found, Total: p.Queries}
	return r.String()
}
