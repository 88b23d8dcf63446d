package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// Section 6.4 — continual optimization. Internet routes drift (BGP
// reconfiguration, ISP policy, IGP reconvergence), so the "closest neighbor"
// answer decays over time. The paper sketches four refresh mechanisms; this
// file implements three of them (the second — a full re-run of the
// nearest-neighbor algorithm — is already available as part of the join
// machinery and exposed via ReacquireTable):
//
//  1. ReorderNeighborSets re-measures the R members of every set and
//     promotes the closest to primary ("periodically adjust which of these
//     neighbors is the primary").
//  2. ReacquireTable re-runs the complete nearest-neighbor table
//     construction from the node's current neighborhood.
//  3. ShareTables implements local information sharing: a node offers its
//     level-i row to its level-i neighbors, who re-measure and adopt any
//     closer entries ("the same idea as the heuristic neighbor table
//     building algorithms in [27, 37]").
//
// After any of these changes a node's primaries, object-pointer paths may be
// stale; callers follow up with OptimizeObjectPtrs (Section 4.2), which the
// maintenance wrapper TuneEpoch does automatically.

// ReorderNeighborSets re-measures every neighbor's distance (dropping
// corpses) and restores distance order within each set. It returns the
// number of sets whose primary changed.
func (n *Node) ReorderNeighborSets(cost *netsim.Cost) int {
	// Probe each distinct neighbor once (one RPC each), in the table's stored
	// (level, digit, rank) order so the probe sequence — and under the
	// event-driven engine the Cost timeline — replays exactly.
	links := n.appendNeighbors(nil)
	var dead []ids.ID
	for i, e := range links {
		if entryIn(links[:i], e.ID) {
			continue
		}
		if _, err := n.mesh.invoke(n.addr, e, msgPing, msgAck, cost, false); err != nil {
			dead = append(dead, e.ID)
		}
	}
	changed := 0
	n.mu.Lock()
	for l := 0; l < n.table.Levels(); l++ {
		for d := 0; d < n.table.Base(); d++ {
			dg := ids.Digit(d)
			set := n.table.Set(l, dg)
			if len(set) == 0 {
				continue
			}
			oldPrimary, _ := n.table.Primary(l, dg)
			for _, e := range set {
				// Only probed, live members are re-measured: an entry that
				// arrived after the snapshot keeps the distance it came with.
				if idIn(dead, e.ID) || !entryIn(links, e.ID) {
					continue
				}
				e.Distance = n.mesh.net.Distance(n.addr, e.Addr)
				n.table.Add(l, e) // update-in-place re-sorts the set
			}
			if newPrimary, ok := n.table.Primary(l, dg); ok && !newPrimary.ID.Equal(oldPrimary.ID) {
				changed++
			}
		}
	}
	n.mu.Unlock()
	return changed
}

// ReacquireTable re-runs the Section 3 nearest-neighbor construction from
// this node's own surrogate, exactly as a fresh join would, tightening every
// level toward the current optimum. It is the paper's heavyweight option
// ("invoke periodic repetitions of the complete nearest neighbor
// algorithm").
func (n *Node) ReacquireTable(cost *netsim.Cost) error {
	// Find the node's current surrogate among the *other* nodes: route to
	// own ID as if absent.
	n.mu.Lock()
	dec := n.nextHop(n.id, 0, &hopFilter{exclude: n.id})
	n.mu.Unlock()
	if dec.terminal {
		return nil // alone in the network (or knows nobody else)
	}
	sur, err := n.mesh.invoke(n.addr, dec.next, msgReacquire, msgAck, cost, true)
	if err != nil {
		n.noteDead(dec.next, cost)
		return err
	}
	alpha := n.id.Prefix(ids.CommonPrefixLen(n.id, sur.id))
	list, err := sur.AcknowledgedMulticast(alpha, nil, cost)
	if err != nil {
		return err
	}
	if _, err := n.mesh.oneWayMsg(sur.addr, entryAt(n.id, n.addr), msgAck, cost); err != nil {
		return err
	}
	n.acquireNeighborTable(list, alpha.Len(), cost)
	return nil
}

// RefineTable re-runs the §4.2 level-by-level nearest-neighbor search from
// the node's current contacts and adopts every candidate that improves a
// neighbor set — the engine-based middle ground between ReorderNeighborSets
// (re-measures existing members only) and ReacquireTable (needs a full
// acknowledged multicast). It returns the number of entries adopted. This is
// the periodic-refinement consumer of nearest.go: run it when drift or churn
// has degraded Property 2 and a multicast per node is too expensive.
func (n *Node) RefineTable(cost *netsim.Cost) int {
	k := n.mesh.kList()
	s := n.newNNSearch(k, ids.ID{}, cost)
	defer s.release()
	s.onDead = func(e route.Entry) { n.noteDead(e, cost) }
	n.mu.Lock()
	s.seeds = appendSeedBand(s.seeds[:0], n.table, 0)
	levels := n.table.Levels()
	n.mu.Unlock()
	for _, e := range s.seeds {
		s.add(e)
	}
	adopted := 0
	offered := map[ids.ID]struct{}{}
	for i := levels - 1; i >= 0; i-- {
		p := n.id.Prefix(i)
		s.expandLevel(p, i, nnLevelRounds)
		for _, e := range s.matchers(p, i) {
			// A candidate seen at an earlier (higher) iteration was already
			// offered at every level above i; only level i is new for it.
			lo, hi := i, i
			if _, was := offered[e.ID]; !was {
				offered[e.ID] = struct{}{}
				hi = ids.CommonPrefixLen(n.id, e.ID)
				if hi > levels-1 {
					hi = levels - 1
				}
			}
			for l := lo; l <= hi; l++ {
				n.mu.Lock()
				improves := n.table.WouldImprove(l, e.ID, e.Distance)
				n.mu.Unlock()
				if improves && n.mesh.net.Alive(e.Addr) && n.addNeighborAndNotify(l, e, cost) {
					adopted++
				}
			}
		}
	}
	return adopted
}

// ShareTables sends each level's row to this node's neighbors at that level;
// the receiving half (considerEntries) runs in the ShareReq dispatch handler;
// each recipient re-measures the offered entries from its own vantage point
// and adopts improvements. Returns the number of adoptions across all
// recipients. This is the cheap gossip-style refresh: no multicast, no
// global search, locality spreads epidemically.
func (n *Node) ShareTables(cost *netsim.Cost) int {
	adopted := 0
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	defer func() { f.share.Entries = nil }()
	for l := 0; l < n.table.Levels(); l++ {
		n.mu.Lock()
		var row []route.Entry
		for d := 0; d < n.table.Base(); d++ {
			row = append(row, n.table.SetView(l, ids.Digit(d))...)
		}
		n.mu.Unlock()
		if len(row) == 0 {
			continue
		}
		// Recipients: distinct neighbors at this level.
		seen := map[ids.ID]struct{}{n.id: {}}
		for _, target := range row {
			if _, dup := seen[target.ID]; dup {
				continue
			}
			seen[target.ID] = struct{}{}
			f.share.Entries = row
			if _, err := n.mesh.invoke(n.addr, target, &f.share, &f.shareResp, cost, false); err != nil {
				n.noteDead(target, cost)
				continue
			}
			adopted += f.shareResp.Adopted
		}
	}
	return adopted
}

// considerEntries re-measures offered entries and adopts any that improve
// the local table (the receiving half of ShareTables).
func (x *Node) considerEntries(offered []route.Entry, cost *netsim.Cost) int {
	adopted := 0
	for _, e := range offered {
		if e.ID.Equal(x.id) {
			continue
		}
		d := x.mesh.net.Distance(x.addr, e.Addr)
		max := ids.CommonPrefixLen(x.id, e.ID)
		x.mu.Lock()
		var improves []int
		for l := 0; l <= max && l < x.table.Levels(); l++ {
			if x.table.WouldImprove(l, e.ID, d) {
				improves = append(improves, l)
			}
		}
		x.mu.Unlock()
		if len(improves) == 0 {
			continue
		}
		if !x.mesh.net.Alive(e.Addr) {
			continue
		}
		e.Distance = d
		e.Pinned, e.Leaving = false, false
		for _, l := range improves {
			if x.addNeighborAndNotify(l, e, cost) {
				adopted++
			}
		}
	}
	return adopted
}

// DegradePrimariesForTest simulates network-distance drift for experiments:
// every primary neighbor's recorded distance is inflated past its set's
// worst member, demoting it — the state a mesh decays into when the
// underlying routes change and recorded measurements go stale (§6.4). The
// tuning mechanisms above are measured by how well they recover from this.
func (n *Node) DegradePrimariesForTest() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	degraded := 0
	for l := 0; l < n.table.Levels(); l++ {
		for d := 0; d < n.table.Base(); d++ {
			set := n.table.Set(l, ids.Digit(d))
			if len(set) < 2 || set[0].ID.Equal(n.id) {
				continue
			}
			e := set[0]
			e.Distance = set[len(set)-1].Distance + 100
			n.table.Add(l, e)
			degraded++
		}
	}
	return degraded
}

// TuneEpoch runs one continual-optimization round across the whole mesh:
// every node re-orders its sets and shares its tables, then redistributes
// object pointers whose primaries changed (Section 6.4's closing
// requirement: "when a new primary neighbor has been chosen, the node needs
// to move some object pointers"). Returns (primary changes, adoptions).
func (m *Mesh) TuneEpoch(cost *netsim.Cost) (reordered, adopted int) {
	nodes := m.Nodes() // ID order
	for _, n := range nodes {
		reordered += n.ReorderNeighborSets(cost)
	}
	for _, n := range nodes {
		adopted += n.ShareTables(cost)
	}
	if reordered+adopted > 0 {
		for _, n := range nodes {
			n.OptimizeObjectPtrs(cost)
		}
	}
	return reordered, adopted
}
