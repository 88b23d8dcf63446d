package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tapestry/internal/ids"
)

// The tests of the pointer store's three rules (objects.go): one probe per
// arrival, nothing outlives the lock, release is the only exit.

// TestStoreSteadyStateAllocatesNothing pins the write path's budget: once a
// publish has laid its path and an unpublish released it, every further
// publish takes its states off the path nodes' free lists and every unpublish
// puts them back, and neither touches the heap.
func TestStoreSteadyStateAllocatesNothing(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool is dropping items (the race detector does, on purpose): allocation counts would measure that")
	}
	_, nodes := buildMeshTransport(t, 64, 7, TransportDirect)
	srv, guid := nodes[5], testSpec.Hash("steady")
	op := func() {
		if err := srv.Publish(guid, nil); err != nil {
			t.Fatal(err)
		}
		srv.Unpublish(guid, nil)
	}
	op() // warms the path's free lists and the frame pool
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("%v allocs per Publish+Unpublish over a warmed path, want 0", n)
	}
}

// storeCounts is every live node's (PointerCount, RootCount).
func storeCounts(m *Mesh) map[*Node][2]int {
	out := map[*Node][2]int{}
	for _, n := range m.Nodes() {
		out[n] = [2]int{n.PointerCount(), n.RootCount()}
	}
	return out
}

// holders returns the live nodes holding a record for guid: the server, the
// path's root, and whatever lies between.
func holders(m *Mesh, guid ids.ID) (all, between []*Node, root *Node) {
	for _, n := range m.Nodes() {
		n.mu.Lock()
		if st := n.find(guid); st != nil {
			all = append(all, n)
			switch {
			case st.recs[0].root:
				root = n
			case !st.recs[0].server.Equal(n.id):
				between = append(between, n)
			}
		}
		n.mu.Unlock()
	}
	return all, between, root
}

// sibling is guid with its last digit changed: a different object that,
// on a mesh this small, routes exactly as guid does.
func sibling(guid ids.ID) ids.ID {
	digs := make([]ids.Digit, guid.Len())
	for i := range digs {
		digs[i] = guid.Digit(i)
	}
	digs[len(digs)-1] = (digs[len(digs)-1] + 1) % ids.Digit(testSpec.Base)
	return testSpec.Make(digs)
}

// TestStoreEveryExitRecyclesCleanly drives a published object's records out
// of the store by each route a record can leave by. Whatever the route, the
// states go through release: every surviving node is back at its baseline
// counts (the baseline is other objects' records, sharing nodes and untouched),
// the free lists hold only zeroed states, a locate of the withdrawn GUID is a
// clean miss, and a different GUID then published over the same nodes — into
// the very states just released — is served by its own server, never the old
// one.
func TestStoreEveryExitRecyclesCleanly(t *testing.T) {
	// Each exit gets the mesh with guid published from srv, and a count of
	// the states released so far.
	exits := []struct {
		name string
		exit func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int)
	}{
		{"unpublish", func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int) {
			srv.Unpublish(guid, nil)
		}},
		{"ttl expiry", func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int) {
			// The application stops serving without withdrawing; the
			// baseline's servers keep republishing theirs.
			srv.mu.Lock()
			srv.published.Delete(guid)
			srv.mu.Unlock()
			for i := int64(0); i <= m.cfg.PointerTTL; i++ {
				m.RunMaintenanceEpoch(nil)
			}
		}},
		{"purge: the server failed", func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int) {
			m.Fail(srv)
			for _, c := range m.Nodes() { // a query purges what it finds stale, hop by hop
				c.Locate(guid, nil)
			}
		}},
		{"purge: the server withdrew", func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int) {
			srv.mu.Lock()
			srv.published.Delete(guid)
			srv.mu.Unlock()
			for _, c := range m.Nodes() {
				c.Locate(guid, nil)
			}
		}},
		{"figure 9 teardown", func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int) {
			// Plant the trail of an older path srv -> x1 -> x2 -> root, on
			// two nodes the real path does not touch, and make the root's
			// record say it arrived that way. The next publish converges on
			// it at the root and deletes the trail backwards.
			all, _, root := holders(m, guid)
			var xs []*Node
			for _, n := range m.Nodes() {
				if len(xs) < 2 && !slices.Contains(all, n) {
					xs = append(xs, n)
				}
			}
			prev := srv
			for _, x := range append(xs, root) {
				x.mu.Lock()
				x.depositOnPath(pointerRec{guid: guid, server: srv.id, serverAddr: srv.addr, key: guid,
					lastHop: prev.id, lastAddr: prev.addr, epoch: m.net.Epoch(), root: x == root}, ids.ID{})
				x.mu.Unlock()
				prev = x
			}
			if err := srv.Publish(guid, nil); err != nil {
				t.Fatal(err)
			}
			if *releases != 2 {
				t.Fatalf("the republish released %d states, want the planted trail's 2", *releases)
			}
			srv.Unpublish(guid, nil)
		}},
		{"a leaver's re-route", func(t *testing.T, m *Mesh, srv *Node, guid ids.ID, releases *int) {
			// A node in the middle of the path, holding nothing else, leaves:
			// its upstream neighbor re-routes around it, the new path meets
			// the old one downstream, and the teardown drops the leaver's
			// record while it is still there to be told.
			_, between, _ := holders(m, guid)
			var leaver *Node
			for _, n := range between {
				if n.PointerCount() == 1 {
					leaver = n
				}
			}
			if leaver == nil {
				t.Fatal("fixture: no path node holds this object's record alone")
			}
			if err := leaver.Leave(nil); err != nil {
				t.Fatal(err)
			}
			if *releases == 0 {
				t.Fatal("the leave released no state: the re-route tore nothing down")
			}
			srv.Unpublish(guid, nil)
		}},
	}
	for _, ex := range exits {
		t.Run(ex.name, func(t *testing.T) {
			m, nodes := buildMesh(t, 64, testConfig(), 41)
			for i := 0; i < 12; i++ {
				if err := nodes[(i*5)%len(nodes)].Publish(testSpec.Hash(fmt.Sprintf("baseline-%d", i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			baseline := storeCounts(m)
			releases, released := 0, map[*objState]bool{}
			m.afterRelease = func(st *objState, _ []pointerRec) {
				releases++
				released[st] = true
			}

			// A server whose path has a middle, so every exit has a trail.
			var srv *Node
			var guid ids.ID
			for i := 0; srv == nil; i++ {
				if i == 256 {
					t.Fatal("fixture: no publish path with a middle node holding nothing else")
				}
				s, g := nodes[i%len(nodes)], testSpec.Hash(fmt.Sprintf("exit-%d", i))
				if err := s.Publish(g, nil); err != nil {
					t.Fatal(err)
				}
				_, between, root := holders(m, g)
				for _, n := range between {
					if root != nil && n.PointerCount() == 1 {
						srv, guid = s, g
					}
				}
				if srv == nil {
					s.Unpublish(g, nil)
				}
			}
			old, _, _ := holders(m, guid)
			releases = 0
			clear(released)

			ex.exit(t, m, srv, guid, &releases)

			if releases == 0 {
				t.Fatal("no state went through release")
			}
			for _, n := range m.Nodes() {
				if got := [2]int{n.PointerCount(), n.RootCount()}; got != baseline[n] {
					t.Errorf("node %v holds %v (pointers, roots), baseline %v", n.id, got, baseline[n])
				}
				n.mu.Lock()
				for st := n.free; st != nil; st = st.next {
					if len(st.recs) != 0 || st.one[0] != (pointerRec{}) {
						t.Errorf("node %v: a free state still holds %+v", n.id, st.one[0])
					}
				}
				n.mu.Unlock()
			}
			for _, c := range m.Nodes() {
				if res := c.Locate(guid, nil); res.Found || res.Exhausted {
					t.Fatalf("locate of the withdrawn object from %v: %+v, want a clean miss", c.id, res)
				}
			}

			// A different object, from a different server on the old path.
			var srv2 *Node
			for _, n := range old {
				if n != srv && m.NodeAt(n.addr) == n {
					srv2 = n
				}
			}
			guid2 := sibling(guid)
			if err := srv2.Publish(guid2, nil); err != nil {
				t.Fatal(err)
			}
			reused := 0
			for _, n := range m.Nodes() {
				n.mu.Lock()
				if st := n.find(guid2); st != nil && released[st] {
					reused++
				}
				n.mu.Unlock()
			}
			if reused == 0 {
				t.Error("the second object landed in no state the first released: nothing was recycled")
			}
			for _, c := range m.Nodes() {
				if res := c.Locate(guid2, nil); !res.Found || !res.Server.Equal(srv2.id) {
					t.Fatalf("locate of the second object from %v: %+v, want server %v", c.id, res, srv2.id)
				}
				if res := c.Locate(guid, nil); res.Found {
					t.Fatalf("the withdrawn object resurfaced at %v: %+v", c.id, res)
				}
			}
			srv2.Unpublish(guid2, nil)
			for _, n := range m.Nodes() {
				if got := [2]int{n.PointerCount(), n.RootCount()}; got != baseline[n] {
					t.Errorf("after the second object: node %v holds %v, baseline %v", n.id, got, baseline[n])
				}
			}
		})
	}
}

// TestStoreReplicasGrowAndShrink publishes one object from three servers, so
// the states where their paths meet grow past the inline record, and withdraws
// them one by one. While several records are there a query picks the closest
// replica; a state that grew and shrank back to one record still serves it;
// emptied, it is released like any other.
func TestStoreReplicasGrowAndShrink(t *testing.T) {
	m, nodes := buildMesh(t, 64, testConfig(), 43)
	baseline := storeCounts(m)
	guid := testSpec.Hash("three-replicas")
	servers := []*Node{nodes[3], nodes[27], nodes[50]}
	for _, s := range servers {
		if err := s.Publish(guid, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, root := holders(m, guid)
	root.mu.Lock()
	st := root.find(guid)
	if len(st.recs) != 3 || &st.recs[0] == &st.one[0] {
		t.Fatalf("the root's state holds %d records (inline: %v), want 3 grown past the inline one",
			len(st.recs), &st.recs[0] == &st.one[0])
	}
	root.mu.Unlock()

	// From every node that knows several replicas, the query goes to the
	// closest (the first of equals, in stored order).
	several := 0
	for _, n := range m.Nodes() {
		n.mu.Lock()
		var want ids.ID
		if st := n.find(guid); st != nil && len(st.recs) > 1 {
			several++
			best := math.Inf(1)
			for _, r := range st.recs {
				if d := m.net.Distance(n.addr, r.serverAddr); d < best {
					best, want = d, r.server
				}
			}
		}
		n.mu.Unlock()
		if res := n.Locate(guid, nil); !res.Found || (!want.IsZero() && !res.Server.Equal(want)) {
			t.Errorf("locate from %v reached %+v, want the closest replica %v", n.id, res, want)
		}
	}
	if several == 0 {
		t.Fatal("fixture: no node holds more than one record")
	}

	for i, s := range servers {
		s.Unpublish(guid, nil)
		left := servers[i+1:]
		for _, n := range m.Nodes() {
			res := n.Locate(guid, nil)
			if len(left) == 0 {
				if res.Found || res.Exhausted {
					t.Fatalf("locate from %v after the last withdrawal: %+v", n.id, res)
				}
				continue
			}
			if !res.Found || !slices.Contains(left, m.NodeByID(res.Server)) {
				t.Fatalf("locate from %v with %d replicas left: %+v", n.id, len(left), res)
			}
		}
	}
	for _, n := range m.Nodes() {
		if got := [2]int{n.PointerCount(), n.RootCount()}; got != baseline[n] {
			t.Errorf("node %v holds %v after every replica withdrew, baseline %v", n.id, got, baseline[n])
		}
	}
}

// poisonState is the pointer store's retention guard, installed as
// Mesh.afterRelease: every record the released state could reach — its inline
// one and the window it had grown — becomes a live-looking, root-flagged,
// never-expiring pointer to a server that does not exist, and the state reads
// as holding it. Anything that kept a state or a window of its records past
// the lock it was found under now acts on that, and drifts a pinned count or
// digest.
func poisonState(st *objState, window []pointerRec) {
	id := ids.FromDigits([]ids.Digit{15, 15, 15, 14, 14, 14})
	poison := pointerRec{guid: id, server: id, serverAddr: 1, key: id, lastHop: id, lastAddr: 1,
		epoch: math.MaxInt64, level: 0xEE, root: true}
	for i := range window {
		window[i] = poison
	}
	st.one[0] = poison
	st.recs = st.one[:1]
}

// TestPoisonStateIsUndoneByReuse keeps the guard honest in both directions: a
// poisoned state must look poisoned while free, and a deposit that takes it
// off the free list must see none of it.
func TestPoisonStateIsUndoneByReuse(t *testing.T) {
	m, nodes := buildMesh(t, 16, testConfig(), 47)
	m.afterRelease = poisonState
	srv, guid := nodes[2], testSpec.Hash("poisoned")
	if err := srv.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	srv.Unpublish(guid, nil)
	if srv.free == nil || len(srv.free.recs) != 1 || !srv.free.recs[0].root {
		t.Fatalf("the released state is not poisoned: %+v", srv.free)
	}
	if err := srv.Publish(sibling(guid), nil); err != nil {
		t.Fatal(err)
	}
	if n := m.Nodes(); srv.PointerCount() != 1 || srv.free != nil {
		t.Fatalf("reuse: %d pointers at the server of %d nodes, free list %v", srv.PointerCount(), len(n), srv.free)
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(sibling(guid), nil); !res.Found || !res.Server.Equal(srv.id) {
			t.Fatalf("locate from %v: %+v", c.id, res)
		}
	}
}
