package core

import (
	"fmt"
	"math/bits"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// hopDecision is the outcome of one local routing decision (Section 2.3:
// "all routing decisions are made based on the current routing table, the
// source and destination GUIDs, and information collected along the route
// ... the number of digits resolved so far").
type hopDecision struct {
	// next is the chosen neighbor; meaningful only when terminal is false.
	next route.Entry
	// nextLevel is the digits-resolved counter the message carries onward.
	nextLevel int
	// terminal reports that the current node is the root for the key.
	terminal bool
}

// nextHop makes the local surrogate-routing decision for key with `level`
// digits already resolved, skipping the node identified by exclude (used by
// Figure 10's "route as if the new node were absent"; pass ids.ID{} for no
// exclusion) and skipping entries whose hosts are observed dead in `deadSet`
// (per-operation memory of failed probes). The caller holds n.mu.
func (n *Node) nextHop(key ids.ID, level int, exclude ids.ID, deadSet map[ids.ID]struct{}) hopDecision {
	digits := n.table.Levels()
	for l := level; l < digits; l++ {
		var set []route.Entry
		switch n.mesh.cfg.Surrogate {
		case SchemeNative:
			set = n.scanNative(key, l, exclude, deadSet)
		case SchemePRRLike:
			set = n.scanPRRLike(key, l, exclude, deadSet)
		default:
			panic(fmt.Sprintf("core: unknown surrogate scheme %v", n.mesh.cfg.Surrogate))
		}
		if len(set) == 0 {
			// Row is empty apart from excluded/dead entries; with self always
			// present this only happens under exclusion — treat as terminal
			// at this node (it is the best surviving surrogate).
			return hopDecision{terminal: true}
		}
		if set[0].ID.Equal(n.id) {
			continue // digit resolved by staying put; move to the next level
		}
		return hopDecision{next: set[0], nextLevel: l + 1}
	}
	return hopDecision{terminal: true}
}

// scanNative returns the candidate entries for Tapestry native routing at
// row l: the first non-empty neighbor set encountered in surrogate order
// (desired digit, then wrapping upward), primary first with live-looking
// secondaries behind it for failover.
func (n *Node) scanNative(key ids.ID, l int, exclude ids.ID, deadSet map[ids.ID]struct{}) []route.Entry {
	// The surrogate order (ids.SurrogateOrder) is generated arithmetically
	// instead of materialized: this scan runs once per level of every locate
	// and publish, and the slice would be the hot path's only allocation.
	base := n.table.Base()
	want := int(key.Digit(l))
	for i := 0; i < base; i++ {
		set := n.usableSet(l, ids.Digit((want+i)%base), exclude, deadSet)
		if len(set) > 0 {
			return set
		}
	}
	return nil
}

// scanPRRLike implements the distributed PRR-like variant: exact digit if
// present; otherwise the filled digit sharing the most significant bits with
// the desired digit, ties broken toward the numerically higher digit. (The
// paper's "after first hole always pick the numerically highest digit" is
// the same rule once the desired digit is treated as its best-bit target; we
// keep the per-level best-bit rule, which also yields a unique root under
// Property 1 by the Theorem 2 argument.)
func (n *Node) scanPRRLike(key ids.ID, l int, exclude ids.ID, deadSet map[ids.ID]struct{}) []route.Entry {
	want := key.Digit(l)
	if set := n.usableSet(l, want, exclude, deadSet); len(set) > 0 {
		return set
	}
	bestScore := -1
	var best []route.Entry
	for d := 0; d < n.table.Base(); d++ {
		dd := ids.Digit(d)
		if dd == want {
			continue
		}
		set := n.usableSet(l, dd, exclude, deadSet)
		if len(set) == 0 {
			continue
		}
		score := bitMatch(want, dd)*64 + d // bit match dominates; ties -> higher digit
		if score > bestScore {
			bestScore = score
			best = set
		}
	}
	return best
}

// bitMatch counts the matching high-order bits of two digits in an 8-bit
// frame, which is order-preserving for any base <= 64.
func bitMatch(a, b ids.Digit) int {
	x := a ^ b
	if x == 0 {
		return 8
	}
	return bits.LeadingZeros8(x)
}

// usableSet filters the neighbor set at (l, d) to entries that are not
// excluded and not locally known to be dead; order (primary first) is
// preserved. It reads the table storage in place (SetView): in the common
// case — no exclusion, no observed corpses — it returns the view itself and
// allocates nothing; the caller holds n.mu and must not retain the slice
// across a table mutation, which every caller (nextHop and the scan helpers)
// already satisfies.
func (n *Node) usableSet(l int, d ids.Digit, exclude ids.ID, deadSet map[ids.ID]struct{}) []route.Entry {
	set := n.table.SetView(l, d)
	skip := func(e route.Entry) bool {
		if !exclude.IsZero() && e.ID.Equal(exclude) {
			return true
		}
		if deadSet == nil {
			return false
		}
		_, dead := deadSet[e.ID]
		return dead
	}
	i := 0
	for ; i < len(set); i++ {
		if skip(set[i]) {
			break
		}
	}
	if i == len(set) {
		return set // nothing filtered: zero-copy fast path
	}
	out := make([]route.Entry, 0, len(set)-1)
	out = append(out, set[:i]...)
	for _, e := range set[i+1:] {
		if !skip(e) {
			out = append(out, e)
		}
	}
	return out
}

// NextHopDecision exposes one local surrogate-routing decision — the inner
// loop of every locate and publish — for the microbenchmark harness, which
// lives outside this package. It returns the chosen neighbor entry, the
// digits-resolved counter the message would carry onward, and whether n is
// the terminal (root) for key.
func (n *Node) NextHopDecision(key ids.ID, level int) (route.Entry, int, bool) {
	n.mu.Lock()
	dec := n.nextHop(key, level, ids.ID{}, nil)
	n.mu.Unlock()
	return dec.next, dec.nextLevel, dec.terminal
}

// routeResult is where a key-directed walk ended.
type routeResult struct {
	node  *Node
	hops  int
	level int // digits resolved upon arrival (== spec.Digits at a true root)
}

// routeToKey walks from n toward key's root via surrogate routing, invoking
// visit (if non-nil) exactly once at every node on the path including the
// endpoints; visit returns true to stop early (e.g. a locate found a
// pointer). It retries through secondary neighbors when a primary's host
// turns out dead (Observation 1 fault tolerance) and repairs the stale link.
// Each hop travels as a wire.RouteStep tagged with op (route, publish or
// unpublish).
func (n *Node) routeToKey(key ids.ID, cost *netsim.Cost, op wire.RouteOp, visit func(cur *Node, level int) bool) (routeResult, error) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.route.Key = key
	f.route.Op = op
	cur := n
	level := 0
	hops := 0
	// Both sets are lazily allocated: a healthy walk never touches them, so
	// the publish/optimize hot paths stay allocation-free.
	var deadSet, bounced map[ids.ID]struct{}
	visited := false                               // re-deciding after a dead hop must not re-visit cur
	maxHops := n.table.Levels()*n.table.Base() + 8 // generous loop guard; Theorem 2 implies <= Levels hops
	for {
		if visit != nil && !visited && visit(cur, level) {
			return routeResult{node: cur, hops: hops, level: level}, nil
		}
		visited = true
		cur.mu.Lock()
		dec := cur.nextHop(key, level, ids.ID{}, deadSet)
		inserting := cur.state.load() == stateInserting
		psur := cur.psurrogate
		alpha := cur.alpha
		cur.mu.Unlock()
		if dec.terminal {
			// Figure 10: a node that is still inserting must not act as a
			// terminal (its table is preliminary — ending a surrogate walk
			// here would, e.g., give a concurrent Join a near-empty table to
			// seed from). Bounce to its pre-insertion surrogate, which
			// routes as if the new node did not exist. The exclusion goes in
			// deadSet — a single excluded ID is not enough, because a walk
			// that bounces off a second inserter could otherwise re-enter
			// (and wrongly terminate at) the first.
			_, alreadyBounced := bounced[cur.id]
			if inserting && !psur.ID.IsZero() && !alreadyBounced {
				if bounced == nil {
					bounced = make(map[ids.ID]struct{}, 2)
				}
				if deadSet == nil {
					deadSet = make(map[ids.ID]struct{}, 2)
				}
				bounced[cur.id] = struct{}{}
				deadSet[cur.id] = struct{}{}
				f.route.Level = level
				next, err := n.mesh.invoke(cur.addr, psur, &f.route, msgAck, cost, true)
				if err != nil {
					// The pre-insertion surrogate died (join racing churn):
					// degrade to terminating here rather than failing every
					// walk that lands on this inserting node.
					return routeResult{node: cur, hops: hops, level: cur.table.Levels()}, nil
				}
				cur = next
				visited = false
				// Resume from the arrival level if it is below |α|: the
				// inserter's preliminary table may have resolved rows
				// level..|α|-1 differently than its surrogate would, and
				// "as if absent" means re-deciding them too.
				if alpha.Len() < level {
					level = alpha.Len()
				}
				hops++
				if hops > maxHops {
					return routeResult{}, fmt.Errorf("core: routing to %v exceeded %d hops (mesh inconsistent)", key, maxHops)
				}
				continue
			}
			return routeResult{node: cur, hops: hops, level: cur.table.Levels()}, nil
		}
		f.route.Level = dec.nextLevel
		next, err := n.mesh.invoke(cur.addr, dec.next, &f.route, msgAck, cost, true)
		if err != nil {
			// Failed hop: remember the corpse for this operation, repair the
			// table, and re-decide from the same node.
			if deadSet == nil {
				deadSet = make(map[ids.ID]struct{}, 2)
			}
			deadSet[dec.next.ID] = struct{}{}
			cur.noteDead(dec.next, cost)
			continue
		}
		cur = next
		visited = false
		level = dec.nextLevel
		hops++
		if hops > maxHops {
			return routeResult{}, fmt.Errorf("core: routing to %v exceeded %d hops (mesh inconsistent)", key, maxHops)
		}
	}
}

// RouteToNode routes a message from n to the node owning exactly the given
// ID, returning the destination and the hop count. It fails if no such node
// exists (the walk terminates at a surrogate with a different ID).
func (n *Node) RouteToNode(target ids.ID, cost *netsim.Cost) (*Node, int, error) {
	res, err := n.routeToKey(target, cost, wire.RouteOpRoute, nil)
	if err != nil {
		return nil, 0, err
	}
	if !res.node.id.Equal(target) {
		return nil, res.hops, fmt.Errorf("core: no node %v (surrogate %v reached)", target, res.node.id)
	}
	return res.node, res.hops, nil
}

// SurrogateFor returns the root node for a key as seen from n — the node a
// publish or query for the key would terminate at (Theorem 2: unique given
// Property 1).
func (n *Node) SurrogateFor(key ids.ID, cost *netsim.Cost) (*Node, int, error) {
	res, err := n.routeToKey(key, cost, wire.RouteOpRoute, nil)
	if err != nil {
		return nil, 0, err
	}
	return res.node, res.hops, nil
}

// noteDead reacts to a failed probe of a neighbor: the entry is removed
// everywhere and holes are repaired per the configured repair scheme
// (Section 5.2). It returns the number of dead forward links removed from
// this node's table (one per level the corpse occupied).
func (n *Node) noteDead(e route.Entry, cost *netsim.Cost) int {
	n.mu.Lock()
	if n.state.load() == stateDead {
		n.mu.Unlock()
		return 0
	}
	levels := n.table.Remove(e.ID)
	var holes []slotRef
	for _, l := range levels {
		d := e.ID.Digit(l)
		if n.table.HasHole(l, d) {
			holes = append(holes, slotRef{l, d})
		}
	}
	n.mu.Unlock()
	n.repairHoles(holes, e.ID, cost)
	return len(levels)
}

// repairHoles refills the given slots after `dead` was removed, dispatching
// on the configured repair scheme: the §4.2 nearest-neighbor search
// (default; refills each slot with the closest qualifying nodes so Property
// 2 survives churn) or the legacy best-effort informant scan kept as an
// experimental baseline. Holes must be in ascending level order (Remove
// reports them that way).
func (n *Node) repairHoles(holes []slotRef, dead ids.ID, cost *netsim.Cost) {
	if len(holes) == 0 {
		return
	}
	switch n.mesh.cfg.Repair {
	case RepairScan:
		for _, h := range holes {
			n.repairHoleScan(h.level, h.digit, dead, cost)
		}
	default:
		n.repairHolesNearest(holes, dead, cost)
	}
}

// repairHolesNearest runs the level-by-level search of §4.2 (nearest.go)
// once per holed slot over ONE shared candidate pool — a corpse that holed
// several levels of the same table would otherwise trigger several searches
// re-querying largely the same peers — and installs up to R closest live
// candidates per slot, so a repaired set holds the same entries a fresh
// table construction would.
func (n *Node) repairHolesNearest(holes []slotRef, dead ids.ID, cost *netsim.Cost) {
	s := n.newNNSearch(n.mesh.kList(), dead, cost)
	defer s.release()

	// Seed once from every contact qualifying for the shallowest hole;
	// deeper holes' informants are a subset.
	minLevel := holes[0].level
	n.mu.Lock()
	s.seeds = appendSeedBand(s.seeds[:0], n.table, minLevel)
	n.mu.Unlock()
	for _, e := range s.seeds {
		s.add(e)
	}

	for _, h := range holes {
		p := n.id.Prefix(h.level).Extend(h.digit)
		s.expandLevel(p, h.level, nnLevelRounds)
		s.expandLevel(p, p.Len(), nnClosureRounds)
		installed := 0
		for _, c := range s.matchers(p, p.Len()) {
			if installed >= n.mesh.cfg.R {
				break
			}
			if n.mesh.net.Alive(c.Addr) && n.addNeighborAndNotify(h.level, c, cost) {
				installed++
			}
		}
	}
}

// repairHoleScan is the legacy repair heuristic: ask current neighbors for
// their matching entries and take the first live one. Not guaranteed to find
// the closest replacement; guaranteed to find *a* replacement if one is known
// to any queried neighbor. Kept (behind Config.Repair = RepairScan) as the
// baseline the E-repair experiment measures the §4.2 engine against.
func (n *Node) repairHoleScan(level int, digit ids.Digit, dead ids.ID, cost *netsim.Cost) {
	n.mu.Lock()
	prefix := n.id.Prefix(level)
	// Candidates able to know (β,j) nodes: anyone sharing β, i.e. entries at
	// rows >= level, plus backpointers at those rows.
	var informants []route.Entry
	n.table.ForEachNeighbor(func(l int, e route.Entry) {
		if l >= level {
			informants = append(informants, e)
		}
	})
	for l := level; l < n.table.Levels(); l++ {
		informants = append(informants, n.table.Backs(l)...)
	}
	n.mu.Unlock()

	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.match.Origin = n.id
	f.match.Level = level
	f.match.Digit = digit
	seen := map[ids.ID]struct{}{dead: {}, n.id: {}}
	for _, inf := range informants {
		if _, dup := seen[inf.ID]; dup {
			continue
		}
		seen[inf.ID] = struct{}{}
		if _, err := n.mesh.invoke(n.addr, inf, &f.match, &f.matchResp, cost, false); err != nil {
			continue
		}
		for _, c := range f.matchResp.Entries {
			if c.ID.Equal(dead) || c.ID.Equal(n.id) || !c.ID.HasPrefix(prefix) {
				continue
			}
			c.Distance = n.mesh.net.Distance(n.addr, c.Addr)
			c.Pinned, c.Leaving = false, false
			if n.mesh.net.Alive(c.Addr) && n.addNeighborAndNotify(level, c, cost) {
				return
			}
		}
	}
}

// SweepDead probes every forward neighbor (the soft-state heartbeat of
// Section 6.5) and repairs links whose hosts no longer respond. It returns
// the number of dead links removed: a neighbor held at several levels counts
// once per level its link was dropped from, matching what Remove reports.
func (n *Node) SweepDead(cost *netsim.Cost) int {
	// Probe in the table's stored (level, digit, rank) order: probe order
	// decides the order repairs run in — and with it repair traffic and
	// eviction tie-breaks. A neighbor held at several levels is probed at its
	// first appearance only.
	links := n.appendNeighbors(nil)
	removed := 0
	for i, e := range links {
		if entryIn(links[:i], e.ID) {
			continue
		}
		if _, err := n.mesh.invoke(n.addr, e, msgPing, msgAck, cost, false); err != nil {
			removed += n.noteDead(e, cost)
		}
	}
	return removed
}
