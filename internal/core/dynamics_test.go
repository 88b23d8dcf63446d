package core

import (
	"math/rand"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// freeAddr returns an address in the mesh's space not hosting a node.
func freeAddr(m *Mesh) netsim.Addr {
	for a := 0; a < m.Net().Size(); a++ {
		if m.NodeAt(netsim.Addr(a)) == nil && !m.Net().Alive(netsim.Addr(a)) {
			return netsim.Addr(a)
		}
	}
	panic("no free address")
}

func TestMulticastReachesAllPrefixHolders(t *testing.T) {
	m, nodes := buildMesh(t, 40, testConfig(), 21)
	// For each node and each of its prefix lengths, the multicast must reach
	// exactly the nodes with that prefix (Theorem 5).
	byPrefix := func(p ids.Prefix) map[string]bool {
		want := map[string]bool{}
		for _, n := range m.Nodes() {
			if n.id.HasPrefix(p) {
				want[n.id.String()] = true
			}
		}
		return want
	}
	for _, start := range []*Node{nodes[0], nodes[17], nodes[39]} {
		for l := 0; l <= 2; l++ {
			p := start.id.Prefix(l)
			var mu sync.Mutex
			got := map[string]bool{}
			var cost netsim.Cost
			reached, err := start.AcknowledgedMulticast(p, func(x *Node) {
				mu.Lock()
				got[x.id.String()] = true
				mu.Unlock()
			}, &cost)
			if err != nil {
				t.Fatal(err)
			}
			want := byPrefix(p)
			if len(got) != len(want) {
				t.Fatalf("prefix %v: applied at %d nodes, want %d", p, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("prefix %v: node %s missed", p, k)
				}
			}
			if len(reached) < len(want) {
				t.Fatalf("prefix %v: reached %d < %d", p, len(reached), len(want))
			}
			// Message cost is O(k): each reached node gets O(1) messages
			// (plus acks); allow a generous constant.
			if l == 0 && cost.Messages() > 6*len(want) {
				t.Errorf("multicast to %d nodes used %d messages", len(want), cost.Messages())
			}
		}
	}
}

func TestMulticastRejectsForeignPrefix(t *testing.T) {
	_, nodes := buildMesh(t, 8, testConfig(), 22)
	var foreign ids.Prefix
	for _, other := range nodes[1:] {
		if ids.CommonPrefixLen(nodes[0].id, other.id) == 0 {
			foreign = other.id.Prefix(1)
			break
		}
	}
	if foreign.Len() == 0 {
		t.Skip("all nodes share a first digit (improbable)")
	}
	if _, err := nodes[0].AcknowledgedMulticast(foreign, nil, nil); err == nil {
		t.Error("multicast with a non-own prefix must fail")
	}
}

func TestVoluntaryLeaveKeepsNetworkConsistent(t *testing.T) {
	m, nodes := buildMesh(t, 40, testConfig(), 23)
	guid := testSpec.Hash("survives-leave")
	server := nodes[10]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// A third of the network departs gracefully (never the server).
	for _, n := range []*Node{nodes[1], nodes[4], nodes[7], nodes[13], nodes[22], nodes[31], nodes[38]} {
		if err := n.Leave(nil); err != nil {
			t.Fatalf("leave %v: %v", n.id, err)
		}
	}
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("Property 1 violated after voluntary departures:\n%v", v[:min(5, len(v))])
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object unavailable from %v after voluntary departures", c.id)
		}
	}
}

func TestLeaveOfRootTransfersObjects(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 24)
	guid := testSpec.Hash("root-owned")
	server := nodes[3]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	key := testSpec.Salt(guid, 0)
	root, _, err := server.SurrogateFor(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == server {
		t.Skip("server is its own root; pick a different seed if this recurs")
	}
	if err := root.Leave(nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object lost after its root departed (client %v)", c.id)
		}
	}
}

func TestLeavingServerRemovesItsReplica(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 25)
	guid := testSpec.Hash("replica-walks")
	a, b := nodes[2], nodes[9]
	if err := a.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave(nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Nodes() {
		res := c.Locate(guid, nil)
		if !res.Found {
			t.Fatalf("remaining replica not found from %v", c.id)
		}
		if !res.Server.Equal(b.id) {
			t.Fatalf("located departed server %v", res.Server)
		}
	}
}

func TestDoubleLeaveFails(t *testing.T) {
	_, nodes := buildMesh(t, 8, testConfig(), 26)
	if err := nodes[1].Leave(nil); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Leave(nil); err == nil {
		t.Error("second leave must fail")
	}
}

func TestInvoluntaryFailureRoutingRecovers(t *testing.T) {
	m, nodes := buildMesh(t, 40, testConfig(), 27)
	// Kill a handful of nodes without notice.
	for _, n := range []*Node{nodes[5], nodes[15], nodes[25]} {
		m.Fail(n)
	}
	// Routing still terminates and roots are still unique among survivors
	// after a sweep repairs the mesh.
	for _, n := range m.Nodes() {
		n.SweepDead(nil)
	}
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("Property 1 violated after failures + sweep:\n%v", v[:min(5, len(v))])
	}
	rng := rand.New(rand.NewSource(3))
	keys := []ids.ID{testSpec.Random(rng), testSpec.Random(rng), testSpec.Random(rng)}
	if v := m.AuditUniqueRoots(keys); len(v) != 0 {
		t.Fatalf("root uniqueness lost after failures: %v", v)
	}
}

func TestFailureThenRepublishRestoresAvailability(t *testing.T) {
	m, nodes := buildMesh(t, 40, testConfig(), 28)
	guid := testSpec.Hash("phoenix")
	server := nodes[8]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	key := testSpec.Salt(guid, 0)
	root, _, err := server.SurrogateFor(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == server {
		t.Skip("server is its own root")
	}
	m.Fail(root) // the root dies with all its pointers
	// Soft state heals: a maintenance epoch republishes everything onto the
	// new surrogate root.
	m.RunMaintenanceEpoch(nil)
	for _, n := range m.Nodes() {
		n.SweepDead(nil)
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object not restored after republish (client %v)", c.id)
		}
	}
}

func TestSoftStateExpiry(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 29)
	guid := testSpec.Hash("ephemeral")
	server := nodes[4]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// Stop serving without unpublishing (a crash of the app, not the node),
	// then let the TTL lapse: pointers must evaporate.
	server.mu.Lock()
	server.published.Delete(guid)
	server.mu.Unlock()
	for i := int64(0); i <= m.Config().PointerTTL; i++ {
		now := m.Net().Tick()
		for _, n := range m.Nodes() {
			n.expirePointers(now)
		}
	}
	for _, n := range m.Nodes() {
		if n.PointerCount() != 0 {
			t.Fatalf("node %v holds %d pointers after TTL", n.id, n.PointerCount())
		}
	}
}

func TestRepublishKeepsPointersFresh(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 30)
	guid := testSpec.Hash("refreshed")
	if err := nodes[6].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// Many maintenance epochs: the object stays available because republish
	// outruns expiry.
	for e := 0; e < int(m.Config().PointerTTL)*4; e++ {
		m.RunMaintenanceEpoch(nil)
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object expired despite republish (client %v)", c.id)
		}
	}
}

func TestConcurrentJoinsMaintainConsistency(t *testing.T) {
	// Theorem 6: simultaneous insertions leave no fillable holes. Join
	// batches of nodes concurrently and audit after each wave.
	cfg := testConfig()
	rng := rand.New(rand.NewSource(31))
	space := metric.NewRing(512)
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(space.Size())
	next := 0
	takeAddr := func() netsim.Addr { a := netsim.Addr(perm[next]); next++; return a }
	if _, err := m.Bootstrap(testSpec.Random(rng), takeAddr()); err != nil {
		t.Fatal(err)
	}
	// Grow a small sequential base first.
	for i := 0; i < 8; i++ {
		gw := m.randomLiveNode(rng)
		if _, _, err := m.Join(gw, m.freshID(rng), takeAddr()); err != nil {
			t.Fatal(err)
		}
	}
	// Now five waves of eight truly concurrent joins.
	for wave := 0; wave < 5; wave++ {
		type joinArg struct {
			gw   *Node
			id   ids.ID
			addr netsim.Addr
		}
		args := make([]joinArg, 8)
		for i := range args {
			args[i] = joinArg{m.randomLiveNode(rng), m.freshID(rng), takeAddr()}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(args))
		for i, a := range args {
			wg.Add(1)
			go func(i int, a joinArg) {
				defer wg.Done()
				_, _, errs[i] = m.Join(a.gw, a.id, a.addr)
			}(i, a)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("wave %d join %d: %v", wave, i, err)
			}
		}
		if v := m.AuditProperty1(); len(v) != 0 {
			t.Fatalf("wave %d: Property 1 violated after concurrent joins:\n%v", wave, v[:min(5, len(v))])
		}
	}
	keys := []ids.ID{testSpec.Random(rng), testSpec.Random(rng)}
	if v := m.AuditUniqueRoots(keys); len(v) != 0 {
		t.Fatalf("concurrent joins broke root uniqueness: %v", v)
	}
}

func TestAvailabilityDuringChurn(t *testing.T) {
	// Objects stay locatable while joins and leaves proceed (Sections 4.3
	// and 5.1). Queries run concurrently with membership changes.
	cfg := testConfig()
	rng := rand.New(rand.NewSource(32))
	space := metric.NewRing(1024)
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(space.Size())
	next := 0
	takeAddr := func() netsim.Addr { a := netsim.Addr(perm[next]); next++; return a }
	if _, err := m.Bootstrap(testSpec.Random(rng), takeAddr()); err != nil {
		t.Fatal(err)
	}
	var servers []*Node
	for i := 0; i < 24; i++ {
		gw := m.randomLiveNode(rng)
		n, _, err := m.Join(gw, m.freshID(rng), takeAddr())
		if err != nil {
			t.Fatal(err)
		}
		if i < 6 {
			servers = append(servers, n)
		}
	}
	guids := make([]ids.ID, len(servers))
	for i, s := range servers {
		guids[i] = testSpec.Hash("churn-object-" + string(rune('a'+i)))
		if err := s.Publish(guids[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var failures sync.Map
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		qrng := rand.New(rand.NewSource(33))
		for {
			select {
			case <-stop:
				return
			default:
			}
			nodes := m.Nodes()
			if len(nodes) == 0 {
				continue
			}
			c := nodes[qrng.Intn(len(nodes))]
			g := guids[qrng.Intn(len(guids))]
			if res := c.Locate(g, nil); !res.Found {
				// Retry once: the client itself may have been mid-departure.
				if res2 := c.Locate(g, nil); !res2.Found {
					failures.Store(g.String()+"/"+c.ID().String(), true)
				}
			}
		}
	}()

	// Churn: 12 joins and 8 leaves interleaved (servers never leave).
	serverSet := map[string]bool{}
	for _, s := range servers {
		serverSet[s.id.String()] = true
	}
	var joined []*Node
	for i := 0; i < 12; i++ {
		gw := m.randomLiveNode(rng)
		n, _, err := m.Join(gw, m.freshID(rng), takeAddr())
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, n)
		if i%3 == 2 {
			// Pick a non-server victim.
			for _, cand := range m.Nodes() {
				if !serverSet[cand.id.String()] && cand != n {
					_ = cand.Leave(nil)
					break
				}
			}
		}
	}
	close(stop)
	qwg.Wait()
	_ = joined

	count := 0
	failures.Range(func(k, v any) bool { count++; return true })
	if count > 0 {
		t.Fatalf("%d locate failures during churn", count)
	}
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("Property 1 violated after churn:\n%v", v[:min(5, len(v))])
	}
}

func TestOptimizeObjectPtrsMaintainsProperty4(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 34)
	guid := testSpec.Hash("optimized")
	server := nodes[7]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// Perturb the mesh: new joins may change primaries along the path.
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 6; i++ {
		gw := m.randomLiveNode(rng)
		if _, _, err := m.Join(gw, m.freshID(rng), freeAddr(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range m.Nodes() {
		n.OptimizeObjectPtrs(nil)
	}
	if v := m.AuditProperty4(); len(v) != 0 {
		t.Fatalf("Property 4 violated after optimization:\n%v", v[:min(5, len(v))])
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object lost after optimization (client %v)", c.id)
		}
	}
}

func TestJoinTransfersRootPointers(t *testing.T) {
	// A new node whose ID makes it the better root for an existing object
	// must receive the pointers during its insertion (LinkAndXferRoot), or
	// queries terminating at it would fail.
	m, nodes := buildMesh(t, 24, testConfig(), 36)
	guid := testSpec.Hash("transferred")
	server := nodes[5]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	key := testSpec.Salt(guid, 0)
	// Craft a node ID equal to the key's first digits: it will become the
	// new root (longest shared prefix wins under surrogate routing).
	d := make([]ids.Digit, testSpec.Digits)
	for i := 0; i < testSpec.Digits; i++ {
		d[i] = key.Digit(i)
	}
	newID := testSpec.Make(d)
	if m.NodeByID(newID) != nil {
		t.Skip("key collides with an existing node")
	}
	gw := nodes[0]
	nn, _, err := m.Join(gw, newID, freeAddr(m))
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := server.SurrogateFor(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root != nn {
		t.Fatalf("exact-match node is not the root (got %v)", root.id)
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object lost after root handover (client %v)", c.id)
		}
	}
	if nn.PointerCount() == 0 {
		t.Error("new root received no pointers")
	}
}

func TestSweepDeadCountsAndRepairs(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 37)
	victim := nodes[9]
	m.Fail(victim)
	totalRemoved := 0
	for _, n := range m.Nodes() {
		totalRemoved += n.SweepDead(nil)
	}
	if totalRemoved == 0 {
		t.Error("nobody noticed the corpse")
	}
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("Property 1 violated after sweep:\n%v", v[:min(5, len(v))])
	}
}

// TestLocateBouncesToVisitedSurrogate: Figure 10's bounce must work when the
// inserting node's pre-insertion surrogate is a node the query already passed
// — here the client itself, which is what a surrogate sees for its own
// queries the moment it pins a joiner. The client's first hop is the
// inserter (empty table, no pointers); the bounce returns to the client,
// which re-decides as if the inserter were absent and finds the object.
// Before the fix the loop memory refused the bounce and the locate reported a
// clean miss for the whole insertion window.
func TestLocateBouncesToVisitedSurrogate(t *testing.T) {
	m, nodes := buildMesh(t, 40, testConfig(), 21)
	server := nodes[0]
	g := testSpec.Hash("bounce-object")
	if err := server.Publish(g, nil); err != nil {
		t.Fatal(err)
	}
	var client *Node
	for _, c := range nodes[1:] {
		c.mu.Lock()
		holds := c.find(g) != nil
		c.mu.Unlock()
		if !holds {
			client = c
			break
		}
	}
	if client == nil {
		t.Fatal("every node holds a pointer for the object")
	}
	if res := client.Locate(g, nil); !res.Found {
		t.Fatal("object unlocatable before the insertion")
	}

	// An inserter whose ID is the object's key is the best next hop for it
	// from anywhere; register it mid-insertion with the client as its
	// pre-insertion surrogate and pin it into the client's table as
	// joinSnapshot would (distance 0 makes it the slot's primary).
	addr := freeAddr(m)
	alpha := g.Prefix(ids.CommonPrefixLen(g, client.id))
	inserter, err := m.register(g, addr, alpha, client.entryFor(addr))
	if err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	added, _ := client.table.Add(alpha.Len(), route.Entry{ID: inserter.id, Addr: addr, Pinned: true})
	dec := client.nextHop(g, 0, nil)
	client.mu.Unlock()
	if !added || dec.terminal || !dec.next.ID.Equal(inserter.id) {
		t.Fatalf("set-up: the client's next hop for the key is %v (terminal=%v), want the inserter", dec.next.ID, dec.terminal)
	}

	res := client.Locate(g, nil)
	if !res.Found || !res.Server.Equal(server.id) {
		t.Fatalf("locate through an inserter whose surrogate is the client: %+v", res)
	}
}
