package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// runEventStorm builds a static mesh, attaches the discrete-event engine,
// and drives an interleaved storm of scheduled joins, voluntary leaves,
// crashes, repair sweeps, maintenance epochs and locates through one
// deterministic virtual-time run. It returns a full trace: every operation's
// outcome stamped with its virtual completion time, the engine counters, and
// the final mesh fingerprint.
func runEventStorm(t *testing.T, seed int64) string {
	t.Helper()
	cfg := testConfig()
	cfg.PointerTTL = 10 // pointers must survive the whole storm
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(4096)
	net := netsim.New(space)

	const base = 40
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, base)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	parts := StaticParticipants(cfg.Spec, addrs, rng)
	m, err := BuildStatic(net, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}

	// Object population, published in direct-call mode before the run.
	nodes := m.Nodes()
	guids := make([]ids.ID, 12)
	for i := range guids {
		guids[i] = cfg.Spec.Hash(fmt.Sprintf("storm-%d", i))
		if err := nodes[rng.Intn(base/2)].Publish(guids[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	e := netsim.NewEngine(seed)
	net.AttachEngine(e)

	var trace strings.Builder // written only by ops: one runs at a time
	logf := func(format string, args ...any) {
		fmt.Fprintf(&trace, "t=%.3f ", e.Now())
		fmt.Fprintf(&trace, format+"\n", args...)
	}

	// Pre-draw every decision so the schedule itself is seed-deterministic.
	// Victims come from the back half of the initial population; clients and
	// gateways from the front half, which never departs.
	for i := 0; i < 6; i++ {
		gw := nodes[rng.Intn(base/2)]
		id := cfg.Spec.Random(rng)
		for m.NodeByID(id) != nil {
			id = cfg.Spec.Random(rng)
		}
		addr := netsim.Addr(perm[base+i])
		at := 1 + rng.Float64()*40
		e.At(at, func() {
			_, cost, err := m.Join(gw, id, addr)
			logf("join %v via %v err=%v msgs=%d vlat=%.3f", id, gw.id, err != nil, cost.Messages(), cost.VirtualLatency())
		})
	}
	for i := 0; i < 8; i++ {
		victim := nodes[base/2+rng.Intn(base/2)]
		crash := i%2 == 0
		at := 2 + rng.Float64()*40
		e.At(at, func() {
			if crash {
				m.Fail(victim)
				logf("crash %v", victim.id)
			} else {
				err := victim.Leave(nil)
				logf("leave %v err=%v", victim.id, err != nil)
			}
		})
	}
	// Repair sweeps and a maintenance epoch interleave with the churn.
	for _, at := range []float64{15, 30, 45} {
		at := at
		e.At(at, func() {
			removed := 0
			for _, n := range m.Nodes() {
				removed += n.SweepDead(nil)
			}
			logf("sweep removed=%d live=%d", removed, m.Size())
		})
	}
	e.At(48, func() {
		m.RunMaintenanceEpoch(nil)
		logf("maintenance epoch=%d", net.Epoch())
	})
	for i := 0; i < 24; i++ {
		client := nodes[rng.Intn(base/2)]
		g := guids[rng.Intn(len(guids))]
		at := 3 + rng.Float64()*50
		e.At(at, func() {
			var cost netsim.Cost
			res := client.Locate(g, &cost)
			logf("locate %v from %v found=%v hops=%d vlat=%.3f",
				g, client.id, res.Found, res.Hops, cost.VirtualLatency())
		})
	}

	e.Run()
	fmt.Fprintf(&trace, "engine %v\n", e.Stats())
	trace.WriteString(meshFingerprint(m))
	return trace.String()
}

// TestCoreEventTwinReplay is the determinism contract of the event-driven
// backend at the protocol level: two identically-seeded storms of
// interleaved join/leave/crash/repair/locate operations must produce
// bit-identical traces AND bit-identical final meshes — independent of the
// host scheduler, because the engine resumes exactly one operation at a
// time and breaks same-time ties from a seeded stream.
func TestCoreEventTwinReplay(t *testing.T) {
	a := runEventStorm(t, 61)
	b := runEventStorm(t, 61)
	if a != b {
		t.Fatalf("twin event-driven runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if c := runEventStorm(t, 62); c == a {
		t.Fatal("different seeds produced identical storms (seeding is dead)")
	}
}

// TestCoreEventStormHealthy runs the storm (under -race in CI, where the
// scheduler handoffs between parked operations are checked) and then audits
// the surviving mesh: after the interleaved churn plus sweeps, Property 1
// must hold and the objects must still be locatable from the stable nodes.
func TestCoreEventStormHealthy(t *testing.T) {
	cfg := testConfig()
	cfg.PointerTTL = 10
	rng := rand.New(rand.NewSource(63))
	space := metric.NewRing(4096)
	net := netsim.New(space)
	const base = 32
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, base)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	m, err := BuildStatic(net, cfg, StaticParticipants(cfg.Spec, addrs, rng))
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.Nodes()
	guid := cfg.Spec.Hash("storm-health")
	if err := nodes[3].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}

	e := netsim.NewEngine(63)
	net.AttachEngine(e)
	for i := 0; i < 6; i++ {
		victim := nodes[base/2+i]
		crash := i%2 == 0
		e.At(float64(1+i), func() {
			if crash {
				m.Fail(victim)
			} else {
				_ = victim.Leave(nil)
			}
		})
	}
	e.At(10, func() {
		for _, n := range m.Nodes() {
			n.SweepDead(nil)
		}
	})
	e.At(12, func() { m.RunMaintenanceEpoch(nil) })
	found := 0
	for i := 0; i < 8; i++ {
		client := nodes[i]
		e.At(14+float64(i), func() {
			if res := client.Locate(guid, nil); res.Found {
				found++
			}
		})
	}
	e.Run()

	if found != 8 {
		t.Fatalf("only %d/8 post-churn locates found the object", found)
	}
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("Property 1 violated after event-driven churn:\n%v", v[:min(5, len(v))])
	}
}

// runTuneTimeline degrades a static mesh's tables, attaches the event engine
// and runs one mesh-wide TuneEpoch while a dozen nodes re-order their own
// sets at overlapping virtual times, so probes from different operations
// queue behind each other at their receivers. Every operation logs its
// message count and virtual span: the timeline depends on the order each
// node probes its neighbors in, not just on how many it probes.
func runTuneTimeline(t *testing.T, seed int64) string {
	t.Helper()
	cfg := testConfig()
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(1024)
	net := netsim.New(space)
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, 40)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	m, err := BuildStatic(net, cfg, StaticParticipants(cfg.Spec, addrs, rng))
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.Nodes()
	for i := 0; i < 8; i++ {
		if err := nodes[rng.Intn(len(nodes))].Publish(cfg.Spec.Hash(fmt.Sprintf("tune-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if degradeTables(m) == 0 {
		t.Fatal("nothing degraded; test is vacuous")
	}

	e := netsim.NewEngine(seed)
	net.AttachEngine(e)
	var trace strings.Builder
	span := func(c *netsim.Cost) string {
		begin, end, _ := c.VirtualSpan()
		msgs, _, dist := c.Snapshot()
		return fmt.Sprintf("msgs=%d dist=%.6f span=[%.6f, %.6f]", msgs, dist, begin, end)
	}
	e.At(1, func() {
		var c netsim.Cost
		reordered, adopted := m.TuneEpoch(&c)
		fmt.Fprintf(&trace, "tune reordered=%d adopted=%d %s\n", reordered, adopted, span(&c))
	})
	for i := 0; i < 12; i++ {
		n := nodes[(i*7)%len(nodes)]
		e.At(1+float64(i)*3, func() {
			var c netsim.Cost
			changed := n.ReorderNeighborSets(&c)
			fmt.Fprintf(&trace, "reorder %v changed=%d %s\n", n.id, changed, span(&c))
		})
	}
	e.Run()
	trace.WriteString(meshFingerprint(m))
	return trace.String()
}

// TestTuneEpochTimelineDeterministic: twin meshes tuned under the
// event-driven engine must produce the same Cost timeline. The neighbor
// probes of ReorderNeighborSets used to run in map-iteration order, which
// left message counts alone but moved every virtual timestamp.
func TestTuneEpochTimelineDeterministic(t *testing.T) {
	a := runTuneTimeline(t, 71)
	for i := 0; i < 4; i++ {
		if b := runTuneTimeline(t, 71); a != b {
			t.Fatalf("twin TuneEpoch timelines diverged:\n--- run 1 ---\n%s\n--- run %d ---\n%s", a, i+2, b)
		}
	}
}

// TestAuditProperty1Stable: the audit's report is a function of the mesh, not
// of map-iteration order — crashed nodes leave stale entries at several
// levels of many tables, and twenty audits must list them identically.
func TestAuditProperty1Stable(t *testing.T) {
	m, nodes := buildMesh(t, 48, testConfig(), 73)
	for i := 3; i < len(nodes); i += 7 {
		m.Fail(nodes[i])
	}
	first := strings.Join(m.AuditProperty1(), "\n")
	if !strings.Contains(first, "stale entry") {
		t.Fatal("no stale entries after crashes; test is vacuous")
	}
	for i := 0; i < 20; i++ {
		if again := strings.Join(m.AuditProperty1(), "\n"); again != first {
			t.Fatalf("AuditProperty1 call %d differs from the first:\n--- first ---\n%s\n--- again ---\n%s", i+2, first, again)
		}
	}
}
