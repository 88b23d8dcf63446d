package core

import (
	"math/rand"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// testSpec keeps identifiers short so small meshes exercise every level.
var testSpec = ids.Spec{Base: 16, Digits: 6}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Spec = testSpec
	return cfg
}

// buildMesh grows a mesh of n nodes over a ring metric with sequential
// joins, asserting success. Addresses are a random permutation of the ring
// points so node locations are uniform.
func buildMesh(t testing.TB, n int, cfg Config, seed int64) (*Mesh, []*Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4) // sparse occupancy: 1/4 of points host nodes
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatalf("NewMesh: %v", err)
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	nodes, _, err := m.GrowSequential(addrs, rng)
	if err != nil {
		t.Fatalf("GrowSequential: %v", err)
	}
	return m, nodes
}

func TestBootstrapOnly(t *testing.T) {
	net := netsim.New(metric.NewRing(8))
	m, err := NewMesh(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := testSpec.Hash("first")
	n, err := m.Bootstrap(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || m.NodeByID(id) != n || m.NodeAt(0) != n {
		t.Error("registry inconsistent after bootstrap")
	}
	if _, err := m.Bootstrap(testSpec.Hash("second"), 1); err == nil {
		t.Error("second bootstrap must fail")
	}
	// The loner is its own root for everything.
	root, hops, err := n.SurrogateFor(testSpec.Hash("any"), nil)
	if err != nil || root != n || hops != 0 {
		t.Errorf("loner surrogate: %v %d %v", root, hops, err)
	}
}

func TestConfigValidation(t *testing.T) {
	net := netsim.New(metric.NewRing(8))
	bad := []Config{
		{Spec: testSpec, R: 1},
		{Spec: testSpec, RootSetSize: -1},
		{Spec: testSpec, PointerTTL: -2},
		{Spec: testSpec, K: -1},
		{Spec: ids.Spec{Base: 1, Digits: 3}},
	}
	for i, cfg := range bad {
		if _, err := NewMesh(net, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	// Zero config gets defaults.
	m, err := NewMesh(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().R != 3 || m.Config().RootSetSize != 1 || m.Config().PointerTTL != 3 {
		t.Errorf("defaults not applied: %+v", m.Config())
	}
}

func TestJoinRejectsDuplicates(t *testing.T) {
	m, nodes := buildMesh(t, 8, testConfig(), 1)
	gw := nodes[0]
	if _, _, err := m.Join(gw, nodes[3].id, netsim.Addr(nodes[3].addr)); err == nil {
		t.Error("duplicate ID join must fail")
	}
	rng := rand.New(rand.NewSource(99))
	if _, _, err := m.Join(gw, m.freshID(rng), nodes[2].addr); err == nil {
		t.Error("duplicate address join must fail")
	}
	if _, _, err := m.Join(nil, m.freshID(rng), 999); err == nil {
		t.Error("nil gateway must fail")
	}
}

func TestSequentialJoinsSatisfyProperty1(t *testing.T) {
	m, _ := buildMesh(t, 48, testConfig(), 2)
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("Property 1 violations after sequential joins:\n%v", v)
	}
}

func TestSequentialJoinsSatisfyProperty2ExactWithFullK(t *testing.T) {
	// Locality (Property 2): with k covering the whole population the
	// Lemma 1 descent sees every candidate, so tables must be exactly the
	// R closest nodes per slot — the Theorem 3/4 guarantee made certain.
	cfg := testConfig()
	cfg.K = 48
	m, _ := buildMesh(t, 48, cfg, 3)
	v := m.AuditProperty2()
	if len(v) != 0 {
		max := len(v)
		if max > 5 {
			max = 5
		}
		t.Fatalf("%d Property 2 violations with full k, e.g.:\n%v", len(v), v[:max])
	}
}

func TestSequentialJoinsProperty2RateWithAutoK(t *testing.T) {
	// With the practical k = O(log n) (the paper's Theorem 3/4 constants —
	// k ≈ 16abc·log n — would exceed these population sizes outright), a
	// modest rate of suboptimal secondary entries is expected and tolerated;
	// the deployed system relies on continual optimization (§6.4) to clean
	// them. Bound the violation rate at 10% of links, and verify primaries
	// are much better than that: Property 1 (correctness) must hold exactly.
	m, nodes := buildMesh(t, 48, testConfig(), 3)
	v := m.AuditProperty2()
	slots := 0
	for _, n := range nodes {
		slots += n.table.NeighborCount()
	}
	if len(v)*10 > slots {
		t.Fatalf("%d Property 2 violations across %d links (> 10%%):\n%v", len(v), slots, v[:min(5, len(v))])
	}
	if p1 := m.AuditProperty1(); len(p1) != 0 {
		t.Fatalf("Property 1 must hold regardless of k: %v", p1[:min(5, len(p1))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestUniqueRootsNative(t *testing.T) {
	m, _ := buildMesh(t, 40, testConfig(), 4)
	rng := rand.New(rand.NewSource(7))
	keys := make([]ids.ID, 24)
	for i := range keys {
		keys[i] = testSpec.Random(rng)
	}
	if v := m.AuditUniqueRoots(keys); len(v) != 0 {
		t.Fatalf("Theorem 2 violated (native): %v", v)
	}
}

func TestUniqueRootsPRRLike(t *testing.T) {
	cfg := testConfig()
	cfg.Surrogate = SchemePRRLike
	m, _ := buildMesh(t, 40, cfg, 5)
	rng := rand.New(rand.NewSource(8))
	keys := make([]ids.ID, 24)
	for i := range keys {
		keys[i] = testSpec.Random(rng)
	}
	if v := m.AuditUniqueRoots(keys); len(v) != 0 {
		t.Fatalf("Theorem 2 violated (prr-like): %v", v)
	}
}

func TestRouteToNode(t *testing.T) {
	_, nodes := buildMesh(t, 32, testConfig(), 6)
	var cost netsim.Cost
	dst, hops, err := nodes[0].RouteToNode(nodes[31].id, &cost)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nodes[31] {
		t.Error("routed to the wrong node")
	}
	if hops > testSpec.Digits {
		t.Errorf("route took %d hops, more than %d digits", hops, testSpec.Digits)
	}
	if cost.Hops() == 0 && nodes[0] != nodes[31] {
		t.Error("cost not charged")
	}
	// Routing to a nonexistent ID errors but lands on a surrogate.
	missing := testSpec.Hash("no-such-node")
	if _, _, err := nodes[0].RouteToNode(missing, nil); err == nil {
		t.Error("routing to a nonexistent node must error")
	}
}

func TestPublishAndLocateEverywhere(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 7)
	guid := testSpec.Hash("object-1")
	server := nodes[5]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range nodes {
		res := c.Locate(guid, nil)
		if !res.Found {
			t.Fatalf("node %v failed to locate %v (Deterministic Location violated)", c.id, guid)
		}
		if !res.Server.Equal(server.id) {
			t.Fatalf("located wrong server %v", res.Server)
		}
	}
	if v := m.AuditProperty4(); len(v) != 0 {
		t.Fatalf("Property 4 violations: %v", v)
	}
}

func TestLocateMissingObject(t *testing.T) {
	_, nodes := buildMesh(t, 16, testConfig(), 8)
	if res := nodes[0].Locate(testSpec.Hash("ghost"), nil); res.Found {
		t.Error("located an object that was never published")
	}
}

func TestLocateFindsClosestReplica(t *testing.T) {
	// Two replicas of the same GUID; each client should reach a replica at
	// most as far as routing to the root would imply, and clients adjacent
	// to a replica should get that replica.
	m, nodes := buildMesh(t, 48, testConfig(), 9)
	guid := testSpec.Hash("replicated")
	a, b := nodes[3], nodes[37]
	if err := a.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	net := m.Net()
	for _, c := range nodes {
		res := c.Locate(guid, nil)
		if !res.Found {
			t.Fatalf("replica not found from %v", c.id)
		}
		if !res.Server.Equal(a.id) && !res.Server.Equal(b.id) {
			t.Fatalf("unexpected server %v", res.Server)
		}
	}
	// The publishing servers locate themselves at distance 0.
	for _, s := range []*Node{a, b} {
		var cost netsim.Cost
		res := s.Locate(guid, &cost)
		if !res.Found || !res.Server.Equal(s.id) {
			t.Fatalf("server should find its own replica first, got %v", res.Server)
		}
		if cost.Distance() > 0 {
			t.Errorf("self-locate traveled %g", cost.Distance())
		}
	}
	_ = net
}

func TestUnpublishRemovesObject(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 10)
	guid := testSpec.Hash("volatile")
	root, _, err := nodes[0].SurrogateFor(guid, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := nodes[2]
	if server == root {
		server = nodes[3] // a path with at least one hop on it
	}
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// The withdrawal retraces the publish path and is charged what it sends.
	var pub, unpub netsim.Cost
	if err := server.Publish(guid, &pub); err != nil {
		t.Fatal(err)
	}
	sent := m.net.TotalMessages()
	server.Unpublish(guid, &unpub)
	if sent = m.net.TotalMessages() - sent; int64(unpub.Messages()) != sent || unpub.Messages() != pub.Messages() || unpub.Messages() == 0 {
		t.Errorf("unpublish charged %d messages; the network counted %d and the republish over the same path cost %d",
			unpub.Messages(), sent, pub.Messages())
	}
	for _, c := range nodes {
		if res := c.Locate(guid, nil); res.Found {
			t.Fatalf("object still locatable from %v after unpublish", c.id)
		}
	}
	// No pointer debris anywhere.
	for _, n := range m.Nodes() {
		if n.PointerCount() != 0 {
			t.Errorf("node %v still holds %d pointers", n.id, n.PointerCount())
		}
	}
}

func TestMultiRootPublishing(t *testing.T) {
	cfg := testConfig()
	cfg.RootSetSize = 3
	_, nodes := buildMesh(t, 32, cfg, 11)
	guid := testSpec.Hash("multi-root")
	if err := nodes[1].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// Every salt-specific query succeeds (Observation 2).
	for salt := 0; salt < 3; salt++ {
		for _, c := range []*Node{nodes[0], nodes[10], nodes[20]} {
			if res := c.LocateVia(guid, salt, nil); !res.Found {
				t.Fatalf("salt %d locate failed from %v", salt, c.id)
			}
		}
	}
}

func TestPointerCountsAndRoots(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 12)
	guid := testSpec.Hash("counted")
	if err := nodes[0].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	totalPtrs, totalRoots := 0, 0
	for _, n := range m.Nodes() {
		totalPtrs += n.PointerCount()
		totalRoots += n.RootCount()
	}
	if totalPtrs == 0 {
		t.Error("publish deposited no pointers")
	}
	if totalRoots != 1 {
		t.Errorf("object should have exactly one root record, got %d", totalRoots)
	}
}

func TestJoinCostScalesPolylog(t *testing.T) {
	// Insert cost (Table 1): messages per join should be polylogarithmic —
	// far below linear. We bound the mean join cost at n=64 by n itself and
	// require it to be non-trivial.
	_, costsSmall := growOnly(t, 64, 20)
	mean := 0.0
	for _, c := range costsSmall[32:] {
		mean += float64(c)
	}
	mean /= float64(len(costsSmall) - 32)
	if mean <= 0 {
		t.Fatal("join cost accounting broken")
	}
	if mean > 64*16 {
		t.Errorf("mean join cost %.0f messages looks super-polylogarithmic", mean)
	}
}

func growOnly(t *testing.T, n int, seed int64) (*Mesh, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	net := netsim.New(space)
	m, err := NewMesh(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	_, costs, err := m.GrowSequential(addrs, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m, costs
}
