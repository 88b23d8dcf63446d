package core

import (
	"fmt"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// Join inserts a new node into the overlay (Section 4, Figure 7):
//
//  1. route from the gateway to the new ID's primary surrogate;
//  2. copy the surrogate's neighbor table as a preliminary table, making the
//     new node immediately functional;
//  3. acknowledged-multicast to every node sharing α = GCP(new, surrogate),
//     carrying the watch list; each reached node links the new node where it
//     improves its table and transfers object pointers that must now root at
//     the new node (LinkAndXferRoot);
//  4. run the incremental nearest-neighbor algorithm (Section 3, Figure 4)
//     to build locality-optimal neighbor sets level by level.
//
// Join is safe to call concurrently for different new nodes (Section 4.4):
// the multicast pins in-flight inserters so simultaneous insertions filling
// the same or related holes discover each other (Theorem 6).
func (m *Mesh) Join(gateway *Node, newID ids.ID, addr netsim.Addr) (*Node, *netsim.Cost, error) {
	cost := &netsim.Cost{}
	if gateway == nil {
		return nil, cost, fmt.Errorf("core: nil gateway")
	}

	// Step 1: acquire the primary surrogate.
	surrogate, _, err := gateway.SurrogateFor(newID, cost)
	if err != nil {
		return nil, cost, fmt.Errorf("core: surrogate acquisition: %w", err)
	}
	if surrogate.id.Equal(newID) {
		return nil, cost, fmt.Errorf("core: node-ID %v already present", newID)
	}

	alpha := newID.Prefix(ids.CommonPrefixLen(newID, surrogate.id))
	n, err := m.register(newID, addr, alpha, surrogate.entryFor(addr))
	if err != nil {
		return nil, cost, err
	}

	// Step 2: preliminary neighbor table (GetPrelimNeighborTable): every
	// link the surrogate has, re-evaluated from the new node's vantage
	// point. The table may be far from optimal but satisfies connectivity.
	// The surrogate-side work — pinning the new node and snapshotting the
	// table — runs in the JoinSnapshotReq dispatch handler (joinSnapshot).
	f := m.getFrames()
	f.joinReq.NewID, f.joinReq.NewAddr, f.joinReq.PinLevel = newID, addr, alpha.Len()
	if _, err := m.invoke(addr, surrogate.entryFor(addr), &f.joinReq, &f.joinResp, cost, true); err != nil {
		m.putFrames(f)
		m.abortJoin(n)
		return nil, cost, fmt.Errorf("core: surrogate died mid-join: %w", err)
	}
	n.installPreliminary(surrogate, f.joinResp.Rows, cost)

	// Step 3: acknowledged multicast over α with the watch list.
	watch := n.holeSlots()
	ctx := &mcastCtx{
		root:      alpha,
		fn:        func(x *Node) { x.linkAndXferRoot(n, cost) },
		cost:      cost,
		newNode:   route.Entry{ID: n.id, Addr: n.addr},
		holeLevel: alpha.Len(),
		watch:     newWatchList(newID, watch),
		newRef:    n,
		visited:   map[ids.ID]struct{}{},
		pinned:    []*Node{surrogate}, // the step-2 pin, released with the rest
	}
	f.mcast.P, f.mcast.Root = alpha, alpha
	f.mcast.NewNode, f.mcast.HoleLevel = ctx.newNode, alpha.Len()
	if _, err := m.oneWayMsg(addr, surrogate.entryFor(addr), &f.mcast, cost); err != nil {
		m.putFrames(f)
		m.abortJoin(n)
		return nil, cost, fmt.Errorf("core: surrogate died before multicast: %w", err)
	}
	m.putFrames(f)
	surrogate.mcastArrive(alpha, ctx)
	alphaList := ctx.reachedEntries()

	// Step 4: nearest-neighbor descent, seeded with the α-list (the paper's
	// optimization: "use the multicast in step 4 ... to get the first list
	// of the nearest neighbor algorithm").
	n.acquireNeighborTable(alphaList, alpha.Len(), cost)

	n.mu.Lock()
	n.state.store(stateActive)
	n.mu.Unlock()
	// Only now release the §4.4 pins: while they were held, every multicast
	// of a concurrently inserting node was forwarded to n, so the two could
	// link (Theorem 6). Deferred capacity evictions happen here.
	ctx.releasePins()
	return n, cost, nil
}

// abortJoin rolls back a half-registered node after a failed join.
func (m *Mesh) abortJoin(n *Node) {
	n.mu.Lock()
	n.state.store(stateDead)
	n.mu.Unlock()
	m.net.Detach(n.addr)
	m.unregister(n)
}

// joinSnapshot is the surrogate-side handler for join step 2: pin the new
// node at its surrogate for the whole insertion, BEFORE taking the
// preliminary snapshot. α is a prefix of the surrogate's own ID, so any
// concurrent insertion's multicast self-recurses at the surrogate down to
// level |α| and gets forwarded to the pinned new node — the §4.4 guarantee
// that simultaneous inserters discover each other even when their multicasts
// are in flight at the same time. (The insertion multicast pins it at every
// reached node too, but that only helps multicasts that start after this
// one's wavefront has passed.) The response carries the surrogate's table
// flattened in ascending (level, digit) order — the same order the old
// per-level snapshot was consumed in, so installation (and its eviction
// tie-breaks) is unchanged.
func (s *Node) joinSnapshot(q *wire.JoinSnapshotReq, r *wire.JoinSnapshotResp, cost *netsim.Cost) {
	pe := route.Entry{ID: q.NewID, Addr: q.NewAddr,
		Distance: s.mesh.net.Distance(s.addr, q.NewAddr), Pinned: true}
	s.mu.Lock()
	pinAdded, _ := s.table.Add(q.PinLevel, pe) // pinned adds never evict
	s.mu.Unlock()
	if pinAdded {
		s.sendBackpointerAdd(q.PinLevel, pe, cost)
	}
	r.Rows = r.Rows[:0]
	s.mu.Lock()
	s.table.ForEachNeighbor(func(l int, e route.Entry) {
		r.Rows = append(r.Rows, wire.LeveledEntry{Level: l, E: e})
	})
	s.mu.Unlock()
}

// installPreliminary seeds the new node's table from the surrogate's links
// (plus the surrogate itself), with distances recomputed from the new node.
// rows arrive level-ascending (see joinSnapshot), which keeps installation
// order — and eviction tie-breaks among equal-distance candidates —
// deterministic.
func (n *Node) installPreliminary(surrogate *Node, rows []wire.LeveledEntry, cost *netsim.Cost) {
	// Measure first, outside the lock.
	raw := make([]route.Entry, 0, len(rows)+1)
	raw = append(raw, surrogate.entryFor(n.addr))
	seen := map[ids.ID]struct{}{}
	for _, r := range rows {
		if _, dup := seen[r.E.ID]; dup {
			continue
		}
		seen[r.E.ID] = struct{}{}
		raw = append(raw, r.E)
	}
	cands := n.measureAll(raw, 0)

	// The whole table goes in under one hold of the lock and the backpointer
	// notifications follow in the same order: the node is reachable from the
	// moment it registers (its surrogate has it pinned), and a query deciding
	// a hop here must see either the empty table — it terminates at once and
	// bounces to the pre-insertion surrogate (Figure 10) — or the complete
	// preliminary one, never a half-copied table whose holes resolve digits
	// by staying put and strand the query at a wrong root.
	type link struct {
		level   int
		e       route.Entry
		added   bool
		evicted []route.Entry
	}
	var links []link
	n.mu.Lock()
	for _, e := range cands {
		max := ids.CommonPrefixLen(n.id, e.ID)
		for l := 0; l <= max && l < n.table.Levels(); l++ {
			added, evicted := n.table.Add(l, e)
			links = append(links, link{l, e, added, evicted})
		}
	}
	n.mu.Unlock()
	for _, ln := range links {
		n.notifyLinkChange(ln.level, ln.e, ln.added, ln.evicted, cost)
	}
}

// holeSlots lists the new node's still-empty slots for the watch list. Lower
// levels are mostly filled by the preliminary table; what remains is exactly
// what Figure 11 describes being sent ("most of the lower levels ... filled
// by the surrogate in the first step, and most of the upper levels ... zero").
func (n *Node) holeSlots() []slotRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []slotRef
	for l := 0; l < n.table.Levels(); l++ {
		for d := 0; d < n.table.Base(); d++ {
			if n.table.HasHole(l, ids.Digit(d)) {
				out = append(out, slotRef{l, ids.Digit(d)})
			}
		}
	}
	return out
}

// linkAndXferRoot is the function the insertion multicast applies at every
// α-node X (Figure 7): add the new node to X's table wherever it improves
// it, and hand over object pointers whose root moves to the new node —
// without this transfer "objects may become unreachable".
func (x *Node) linkAndXferRoot(n *Node, cost *netsim.Cost) {
	if x.id.Equal(n.id) {
		return
	}
	d := x.mesh.net.Distance(x.addr, n.addr)
	e := route.Entry{ID: n.id, Addr: n.addr, Distance: d}
	max := ids.CommonPrefixLen(x.id, n.id)
	x.mu.Lock()
	var improves []int
	for l := 0; l <= max && l < x.table.Levels(); l++ {
		if x.table.WouldImprove(l, n.id, d) {
			improves = append(improves, l)
		}
	}
	x.mu.Unlock()
	for _, l := range improves {
		x.addNeighborAndNotify(l, e, cost)
	}

	// Root transfer: every pointer rooted at X is re-routed from level 0 —
	// the true-root computation. The new node may have re-rooted a key by
	// filling the (|α|, ·) hole at *upstream* nodes, a change X cannot see by
	// re-examining its own table at the record's arrival level; a full
	// re-route from X converges on the current unique root (Theorem 2) and
	// deposits the pointer there — AT the new node if that is the root now,
	// inserting or not, so the walk does not bounce. If the root did not
	// move, the walk simply re-terminates at X and the records refresh in
	// place.
	x.reroutePointers(cost, ids.ID{}, true, false, func(r *pointerRec) bool {
		if !r.root && !x.nextHop(r.key, int(r.level), nil).terminal {
			return false
		}
		r.root = false
		return true
	})
}

// acquireNeighborTable is Figure 4's ACQUIRENEIGHBORTABLE on the nearest.go
// engine: starting from the closest k nodes sharing maxLevel digits,
// repeatedly derive the closest k nodes sharing one digit fewer (Lemma 1)
// and fill the corresponding table level from everything measured along the
// way (Lemma 2), down to the empty prefix. Every queried peer also checks
// whether the inserting node improves its own table (Figure 4 line 4 /
// Theorem 4's update mechanism, via the engine's onPeer hook).
func (n *Node) acquireNeighborTable(seed []route.Entry, maxLevel int, cost *netsim.Cost) {
	k := n.mesh.kList()
	s := n.newNNSearch(k, ids.ID{}, cost)
	defer s.release()
	s.onPeer = func(peer *Node) { peer.addToTableIfCloser(n, cost) }
	s.onDead = func(e route.Entry) { n.noteDead(e, cost) }
	// The α-list from the multicast is complete, so use all of it to fill
	// the top levels (Lemma 2 wants ~b·log n candidates per level; the
	// trimmed k-list is only the descent vehicle of Lemma 1).
	all := n.measureAll(seed, maxLevel)
	n.buildTableFromList(all, maxLevel, cost)
	for _, e := range all {
		s.add(e)
	}
	for i := maxLevel - 1; i >= 0; i-- {
		p := n.id.Prefix(i)
		s.expandLevel(p, i, nnLevelRounds)
		n.buildTableFromList(s.matchers(p, i), i, cost)
	}
}

// measureAll filters to candidates sharing >= level digits and fills in
// their distances from the new node (metric oracle — deployments get these
// from RTT measurements accumulated as a side effect of traffic).
func (n *Node) measureAll(cands []route.Entry, level int) []route.Entry {
	out := make([]route.Entry, 0, len(cands))
	for _, c := range cands {
		if c.ID.Equal(n.id) || ids.CommonPrefixLen(n.id, c.ID) < level {
			continue
		}
		c.Distance = n.mesh.net.Distance(n.addr, c.Addr)
		c.Pinned, c.Leaving = false, false
		out = append(out, c)
	}
	return out
}

// buildTableFromList installs list members into every qualifying level >=
// minLevel of the new node's table. Entries already present at a level are
// skipped outright: the descent re-offers its cumulative pool at every
// level, and re-adding an unchanged entry would re-send its backpointer
// registration (Table.Add reports an update-in-place as added).
func (n *Node) buildTableFromList(list []route.Entry, minLevel int, cost *netsim.Cost) {
	var buf [16]int // levels missing one entry: stack-resident for any realistic spec
	for _, e := range list {
		max := ids.CommonPrefixLen(n.id, e.ID)
		n.mu.Lock()
		missing := buf[:0]
		for l := minLevel; l <= max && l < n.table.Levels(); l++ {
			if !n.table.Contains(l, e.ID) {
				missing = append(missing, l)
			}
		}
		n.mu.Unlock()
		for _, l := range missing {
			n.addNeighborAndNotify(l, e, cost)
		}
	}
}

// addToTableIfCloser lets an existing node x adopt the inserting node n
// wherever it improves x's neighbor sets (Figure 4 line 4).
func (x *Node) addToTableIfCloser(n *Node, cost *netsim.Cost) {
	d := x.mesh.net.Distance(x.addr, n.addr)
	max := ids.CommonPrefixLen(x.id, n.id)
	x.mu.Lock()
	var improves []int
	for l := 0; l <= max && l < x.table.Levels(); l++ {
		if x.table.WouldImprove(l, n.id, d) {
			improves = append(improves, l)
		}
	}
	x.mu.Unlock()
	e := route.Entry{ID: n.id, Addr: n.addr, Distance: d}
	for _, l := range improves {
		x.addNeighborAndNotify(l, e, cost)
	}
}
