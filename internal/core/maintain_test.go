package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// sortedPointerState renders every pointer record in the mesh in canonical
// (node, guid, line) order. Unlike meshFingerprint it is insensitive to the
// order records were appended in, so it can compare meshes that deposited
// the same pointer set along different schedules (batched vs unbatched).
func sortedPointerState(m *Mesh) string {
	var lines []string
	for _, n := range m.Nodes() {
		n.mu.Lock()
		for _, g := range sortedGUIDs(nil, &n.objects) {
			for _, r := range n.find(g).recs {
				lines = append(lines, fmt.Sprintf(
					"%v %v srv=%v key=%v lvl=%d last=%v root=%v ep=%d",
					n.id, g, r.server, r.key, r.level, r.lastHop, r.root, r.epoch))
			}
		}
		n.mu.Unlock()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// publishSharedPrefix publishes count objects from server whose GUIDs all
// start with the same digit, so their publish paths share early hops — the
// regime batching is supposed to exploit.
func publishSharedPrefix(t *testing.T, server *Node, count int) []ids.ID {
	t.Helper()
	want := server.id.Digit(0)
	var guids []ids.ID
	for i := 0; len(guids) < count; i++ {
		g := testSpec.Hash(fmt.Sprintf("batch-obj-%d", i))
		if g.Digit(0) != want {
			continue
		}
		if err := server.Publish(g, nil); err != nil {
			t.Fatalf("Publish %v: %v", g, err)
		}
		guids = append(guids, g)
		if i > 64*count {
			t.Fatalf("could not mine %d GUIDs with first digit %d", count, want)
		}
	}
	return guids
}

// TestRepublishAllBatchedMatchesUnbatched: on twin meshes, the batched
// caravan republish and the legacy per-object walk must produce
// byte-identical mesh state — same pointers, same roots, same tables — while
// the batched version spends strictly fewer messages.
func TestRepublishAllBatchedMatchesUnbatched(t *testing.T) {
	cfg := testConfig()
	cfg.RootSetSize = 2
	build := func() (*Mesh, *Node) {
		m, nodes := buildMesh(t, 40, cfg, 34)
		server := nodes[3]
		for i := 0; i < 16; i++ {
			g := testSpec.Hash(fmt.Sprintf("repub-eq-%d", i))
			if err := server.Publish(g, nil); err != nil {
				t.Fatal(err)
			}
		}
		return m, server
	}

	mBatched, sBatched := build()
	mLegacy, sLegacy := build()
	if f1, f2 := meshFingerprint(mBatched), meshFingerprint(mLegacy); f1 != f2 {
		t.Fatal("twin meshes diverged before republish (build nondeterminism)")
	}

	var costBatched, costLegacy netsim.Cost
	sBatched.RepublishAll(&costBatched)
	for _, g := range sLegacy.PublishedObjects() {
		if err := sLegacy.republishObject(sLegacy.mesh.getFrames(), g, &costLegacy); err != nil {
			t.Fatalf("republishObject %v: %v", g, err)
		}
	}

	if f1, f2 := meshFingerprint(mBatched), meshFingerprint(mLegacy); f1 != f2 {
		t.Errorf("batched republish changed mesh state vs per-object walk:\n--- batched ---\n%s\n--- unbatched ---\n%s", f1, f2)
	}
	if p1, p2 := sortedPointerState(mBatched), sortedPointerState(mLegacy); p1 != p2 {
		t.Errorf("pointer state diverged:\n--- batched ---\n%s\n--- unbatched ---\n%s", p1, p2)
	}
	b, u := costBatched.Messages(), costLegacy.Messages()
	if b >= u {
		t.Errorf("batched republish sent %d messages, unbatched %d; want strictly fewer", b, u)
	}
	t.Logf("republish messages: batched=%d unbatched=%d (%.0f%%)", b, u, 100*float64(b)/float64(u))
}

// TestRepublishBatchedScalesWithNextHops: when every record leaves the
// server through the same routing slot, the caravan's first wave is one
// message regardless of how many objects ride it. Shared-prefix GUIDs give
// long shared path segments, so the total must come in well under the
// per-path walk (which pays every hop once per record).
func TestRepublishBatchedScalesWithNextHops(t *testing.T) {
	cfg := testConfig()
	cfg.RootSetSize = 2
	build := func() (*Mesh, *Node) {
		m, nodes := buildMesh(t, 40, cfg, 91)
		return m, nodes[0]
	}
	mBatched, sBatched := build()
	mLegacy, sLegacy := build()
	publishSharedPrefix(t, sBatched, 12)
	guids := publishSharedPrefix(t, sLegacy, 12)

	var costBatched, costLegacy netsim.Cost
	sBatched.RepublishAll(&costBatched)
	for _, g := range guids {
		if err := sLegacy.republishObject(sLegacy.mesh.getFrames(), g, &costLegacy); err != nil {
			t.Fatal(err)
		}
	}
	if p1, p2 := sortedPointerState(mBatched), sortedPointerState(mLegacy); p1 != p2 {
		t.Fatal("pointer state diverged between batched and unbatched republish")
	}
	b, u := costBatched.Messages(), costLegacy.Messages()
	// 24 records share the server's first hop (one group ≡ one message where
	// the walk pays 24), and keep sharing while prefixes agree; well under
	// 2/3 of the unbatched cost is a conservative floor for this topology.
	if 3*b >= 2*u {
		t.Errorf("batched republish sent %d messages vs unbatched %d; want < 2/3", b, u)
	}
	t.Logf("shared-prefix republish messages: batched=%d unbatched=%d (%.0f%%)", b, u, 100*float64(b)/float64(u))
}

// TestRepublishBatchedDeadHop: a dead node on the publish paths forces the
// caravan through the group re-decide path. The surviving pointer state must
// match what the per-object walk (which retries through secondaries one
// path at a time) leaves behind, and the objects must stay locatable.
func TestRepublishBatchedDeadHop(t *testing.T) {
	cfg := testConfig()
	cfg.RootSetSize = 2
	build := func() (*Mesh, *Node, []ids.ID) {
		m, nodes := buildMesh(t, 40, cfg, 34)
		server := nodes[3]
		var guids []ids.ID
		for i := 0; i < 16; i++ {
			g := testSpec.Hash(fmt.Sprintf("repub-dead-%d", i))
			if err := server.Publish(g, nil); err != nil {
				t.Fatal(err)
			}
			guids = append(guids, g)
		}
		// Kill a node that holds pointers for the first object — guaranteed
		// to sit on at least one publish path — choosing the highest-ID
		// holder so the pick is deterministic and never the server itself.
		var victim *Node
		for _, n := range m.Nodes() {
			if n == server {
				continue
			}
			n.mu.Lock()
			holds := n.find(guids[0]) != nil
			n.mu.Unlock()
			if holds {
				victim = n
			}
		}
		if victim == nil {
			t.Fatal("no pointer holder besides the server")
		}
		m.Fail(victim)
		return m, server, guids
	}

	mBatched, sBatched, guids := build()
	mLegacy, sLegacy, _ := build()

	var cost netsim.Cost
	sBatched.RepublishAll(&cost)
	for _, g := range sLegacy.PublishedObjects() {
		_ = sLegacy.republishObject(sLegacy.mesh.getFrames(), g, &cost) // dead hops may surface as errors
	}

	if p1, p2 := sortedPointerState(mBatched), sortedPointerState(mLegacy); p1 != p2 {
		t.Errorf("pointer state diverged after dead-hop republish:\n--- batched ---\n%s\n--- unbatched ---\n%s", p1, p2)
	}
	// Every object must remain locatable from an arbitrary distant node.
	nodes := mBatched.Nodes()
	querier := nodes[len(nodes)-1]
	for _, g := range guids {
		if res := querier.Locate(g, nil); !res.Found || !res.Server.Equal(sBatched.id) {
			t.Errorf("object %v unlocatable after batched republish around dead hop", g)
		}
	}
}

// TestSweepDeadAllMatchesPerNodeSweep: with the same failed nodes, the
// mesh-wide coalesced sweep must remove exactly the links the per-node
// sweeps remove and leave a byte-identical mesh — only cheaper, because
// each distinct neighbor is probed once instead of once per holder.
func TestSweepDeadAllMatchesPerNodeSweep(t *testing.T) {
	build := func() *Mesh {
		m, _ := buildMesh(t, 40, testConfig(), 34)
		nodes := m.Nodes()
		for i := 5; i < len(nodes); i += 9 { // fail 4 nodes, ID order
			m.Fail(nodes[i])
		}
		return m
	}

	mAll := build()
	mPer := build()
	if f1, f2 := meshFingerprint(mAll), meshFingerprint(mPer); f1 != f2 {
		t.Fatal("twin meshes diverged before sweep")
	}

	var costAll, costPer netsim.Cost
	removedAll := mAll.SweepDeadAll(&costAll)
	removedPer := 0
	for _, n := range mPer.Nodes() {
		removedPer += n.SweepDead(&costPer)
	}

	if removedAll != removedPer {
		t.Errorf("SweepDeadAll removed %d links, per-node sweeps removed %d", removedAll, removedPer)
	}
	if removedAll == 0 {
		t.Error("expected dead links after failing 4 nodes")
	}
	if f1, f2 := meshFingerprint(mAll), meshFingerprint(mPer); f1 != f2 {
		t.Errorf("mesh state diverged between coalesced and per-node sweeps:\n--- all ---\n%s\n--- per ---\n%s", f1, f2)
	}
	a, p := costAll.Messages(), costPer.Messages()
	if a >= p {
		t.Errorf("SweepDeadAll sent %d messages, per-node sweeps %d; want strictly fewer", a, p)
	}
	t.Logf("sweep messages: coalesced=%d per-node=%d (%.0f%%)", a, p, 100*float64(a)/float64(p))
}

// TestSweepDeadAllProbesDistinctOnce: on a fully live mesh the coalesced
// sweep's traffic is exactly one round trip per distinct neighbor
// referenced anywhere — message count scales with distinct addresses, not
// with total links.
func TestSweepDeadAllProbesDistinctOnce(t *testing.T) {
	m, _ := buildMesh(t, 40, testConfig(), 55)

	distinct := map[ids.ID]struct{}{}
	perNodeSum := 0
	for _, n := range m.Nodes() {
		local := map[ids.ID]struct{}{}
		for _, e := range n.appendNeighbors(nil) {
			local[e.ID] = struct{}{}
			distinct[e.ID] = struct{}{}
		}
		perNodeSum += len(local)
	}

	var cost netsim.Cost
	if removed := m.SweepDeadAll(&cost); removed != 0 {
		t.Fatalf("live mesh sweep removed %d links", removed)
	}
	// A live probe is a request plus a response (Mesh.rpc), nothing else.
	if got, want := cost.Messages(), 2*len(distinct); got != want {
		t.Errorf("SweepDeadAll sent %d messages; want %d (one round trip per %d distinct neighbors)",
			got, want, len(distinct))
	}
	if 2*len(distinct) >= 2*perNodeSum {
		t.Fatalf("topology has no shared neighbors (distinct=%d sum=%d): test is vacuous",
			len(distinct), perNodeSum)
	}
	t.Logf("distinct neighbors=%d vs per-node link sum=%d", len(distinct), perNodeSum)
}
