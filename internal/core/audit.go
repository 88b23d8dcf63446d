package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// GrowSequential joins count new nodes one at a time through random live
// gateways, drawing fresh random IDs from rng and consuming addresses from
// addrs in order. It returns the new nodes and the per-join message counts.
func (m *Mesh) GrowSequential(addrs []netsim.Addr, rng *rand.Rand) ([]*Node, []int, error) {
	nodes := make([]*Node, 0, len(addrs))
	costs := make([]int, 0, len(addrs))
	for _, a := range addrs {
		id := m.freshID(rng)
		gw := m.randomLiveNode(rng)
		if gw == nil {
			n, err := m.Bootstrap(id, a)
			if err != nil {
				return nodes, costs, err
			}
			nodes = append(nodes, n)
			costs = append(costs, 0)
			continue
		}
		n, cost, err := m.Join(gw, id, a)
		if err != nil {
			return nodes, costs, fmt.Errorf("join %v@%d: %w", id, a, err)
		}
		nodes = append(nodes, n)
		costs = append(costs, cost.Messages())
	}
	return nodes, costs, nil
}

// freshID draws a random ID not already in use.
func (m *Mesh) freshID(rng *rand.Rand) ids.ID {
	for {
		id := m.cfg.Spec.Random(rng)
		if m.NodeByID(id) == nil {
			return id
		}
	}
}

// randomLiveNode returns a uniformly random registered node, or nil when the
// overlay is empty.
func (m *Mesh) randomLiveNode(rng *rand.Rand) *Node {
	nodes := m.Nodes() // already ID-sorted, so the draw is reproducible
	if len(nodes) == 0 {
		return nil
	}
	return nodes[rng.Intn(len(nodes))]
}

// RunMaintenanceEpoch advances virtual time one epoch, expires stale
// pointers everywhere, and republishes every served object — the periodic
// soft-state refresh of Section 6.5.
func (m *Mesh) RunMaintenanceEpoch(cost *netsim.Cost) {
	now := m.net.Tick()
	nodes := m.Nodes()
	for _, n := range nodes {
		n.expirePointers(now)
	}
	for _, n := range nodes {
		n.RepublishAll(cost)
	}
}

// prefixCensus counts, for every prefix occurring among live node IDs, how
// many nodes carry it; used by the audits to decide whether a "hole" is
// legitimate.
func (m *Mesh) prefixCensus() map[string]int {
	census := map[string]int{}
	for _, n := range m.Nodes() {
		for l := 1; l <= n.id.Len(); l++ {
			census[n.id.Prefix(l).String()]++
		}
	}
	return census
}

// AuditProperty1 verifies the consistency property: a node's neighbor set
// N_{β,j} may be empty only if no live (β,j) node exists anywhere. It
// returns a description of each violation (an illegitimate hole) plus any
// table entry pointing at a node that no longer exists.
func (m *Mesh) AuditProperty1() []string {
	census := m.prefixCensus()
	var violations []string
	for _, n := range m.Nodes() {
		n.lockedView(func(t *route.Table) {
			for l := 0; l < t.Levels(); l++ {
				prefix := n.id.Prefix(l)
				for d := 0; d < t.Base(); d++ {
					dj := ids.Digit(d)
					if !t.HasHole(l, dj) {
						continue
					}
					if census[prefix.Extend(dj).String()] > 0 {
						violations = append(violations,
							fmt.Sprintf("node %v: hole at level %d digit %d but (%v,%d) nodes exist",
								n.id, l, d, prefix, d))
					}
				}
			}
		})
	}
	for _, n := range m.Nodes() {
		// Table order (level, digit, rank), so the report is stable.
		n.lockedView(func(t *route.Table) {
			t.ForEachNeighbor(func(level int, e route.Entry) {
				if peer := m.NodeByID(e.ID); peer == nil || peer.addr != e.Addr {
					violations = append(violations,
						fmt.Sprintf("node %v: stale entry %v at level %d", n.id, e.ID, level))
				}
			})
		})
	}
	return violations
}

// AuditProperty2 verifies locality: every neighbor set should hold exactly
// the R closest live (β,j) nodes (ties in distance are interchangeable). It
// returns one description per slot whose contents are not distance-optimal.
// The guarantee is probabilistic (Theorems 3–4 hold w.h.p. and only for
// growth-restricted metrics), so callers typically assert a violation *rate*
// rather than zero.
func (m *Mesh) AuditProperty2() []string {
	nodes := m.Nodes()
	var violations []string
	for _, n := range nodes {
		// Gather candidate distances per (level, digit) for this node.
		type slotKey struct {
			l int
			d ids.Digit
		}
		best := map[slotKey][]float64{}
		for _, peer := range nodes {
			if peer.id.Equal(n.id) {
				continue
			}
			cpl := ids.CommonPrefixLen(n.id, peer.id)
			dist := m.net.Distance(n.addr, peer.addr)
			for l := 0; l <= cpl && l < n.id.Len(); l++ {
				k := slotKey{l, peer.id.Digit(l)}
				best[k] = append(best[k], dist)
			}
		}
		n.lockedView(func(t *route.Table) {
			for k, dists := range best {
				sort.Float64s(dists)
				set := t.Set(k.l, k.d)
				var got []float64
				for _, e := range set {
					if !e.ID.Equal(n.id) {
						got = append(got, e.Distance)
					}
				}
				want := t.R()
				if len(dists) < want {
					want = len(dists)
				}
				if k.d == n.id.Digit(k.l) && want == t.R() {
					// The owner occupies one slot of its own set; only R-1
					// foreign entries are expected there... unless the set
					// held extras. Accept >= R-1 foreign entries.
					want = t.R() - 1
				}
				if len(got) < want {
					violations = append(violations, fmt.Sprintf(
						"node %v slot (%d,%d): %d entries, want %d", n.id, k.l, k.d, len(got), want))
					continue
				}
				for i := 0; i < want; i++ {
					if got[i] > dists[i]+1e-9 {
						violations = append(violations, fmt.Sprintf(
							"node %v slot (%d,%d): entry %d at distance %g, optimum %g",
							n.id, k.l, k.d, i, got[i], dists[i]))
						break
					}
				}
			}
		})
	}
	return violations
}

// AuditUniqueRoots checks Theorem 2: for each sampled key, surrogate routing
// from every live node terminates at the same root. It returns violations
// and the total extra surrogate hops observed (for the <2-expected-extra-hops
// claim, measured separately).
func (m *Mesh) AuditUniqueRoots(keys []ids.ID) []string {
	var violations []string
	nodes := m.Nodes()
	for _, key := range keys {
		var rootID ids.ID
		for _, n := range nodes {
			root, _, err := n.SurrogateFor(key, nil)
			if err != nil {
				violations = append(violations, fmt.Sprintf("key %v from %v: %v", key, n.id, err))
				continue
			}
			if rootID.IsZero() {
				rootID = root.id
			} else if !rootID.Equal(root.id) {
				violations = append(violations, fmt.Sprintf(
					"key %v: roots %v and %v disagree", key, rootID, root.id))
			}
		}
	}
	return violations
}

// routePath returns the nodes a plain route from n toward key's root visits,
// endpoints included.
func (n *Node) routePath(key ids.ID) ([]*Node, error) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.route.Key, f.route.Op = key, wire.RouteOpRoute
	w := f.newWalk(stepNone, &f.route, key, nil)
	w.keepPath = true
	_, err := n.runWalk(f)
	return slices.Clone(w.path), err
}

// AuditProperty4 checks that every node on each current publish path holds
// the corresponding pointer: walk the path from each server toward each
// salted root and confirm the records exist. Returns violations.
func (m *Mesh) AuditProperty4() []string {
	var violations []string
	for _, server := range m.Nodes() {
		for _, guid := range server.PublishedObjects() {
			for s := 0; s < m.cfg.RootSetSize; s++ {
				key := m.cfg.Spec.Salt(guid, s)
				path, err := server.routePath(key)
				for _, cur := range path {
					cur.mu.Lock()
					ok := false
					if st := cur.find(guid); st != nil {
						for _, r := range st.recs {
							if r.samePath(server.id, key) {
								ok = true
							}
						}
					}
					cur.mu.Unlock()
					if !ok {
						violations = append(violations, fmt.Sprintf(
							"object %v (server %v, salt %d): node %v on path lacks pointer",
							guid, server.id, s, cur.id))
					}
				}
				if err != nil {
					violations = append(violations, fmt.Sprintf(
						"object %v (server %v, salt %d): path walk failed: %v", guid, server.id, s, err))
				}
			}
		}
	}
	return violations
}
