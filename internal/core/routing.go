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
	// bounce marks next as an inserting terminal's pre-insertion surrogate
	// (Figure 10); only a walk's decision sets it (walk.decide).
	bounce bool
}

// nextHop makes the local surrogate-routing decision for key with `level`
// digits already resolved, hiding from it whatever filter names (nil hides
// nothing: the allocation-free path of every healthy hop). Tapestry-native
// routing is the table's own scan (route.Table.NextHop, which the daemon of
// internal/procnode calls too); the PRR-like variant is kept here as the
// surrogate ablation's baseline. The caller holds n.mu.
func (n *Node) nextHop(key ids.ID, level int, filter *hopFilter) hopDecision {
	var skip func(route.Entry) bool
	if filter != nil && filter.active() {
		skip = filter.skip
	}
	switch n.mesh.cfg.Surrogate {
	case SchemeNative:
		next, nextLevel, terminal := n.table.NextHop(key, level, skip)
		return hopDecision{next: next, nextLevel: nextLevel, terminal: terminal}
	case SchemePRRLike:
		for l := level; l < n.table.Levels(); l++ {
			e, ok := n.scanPRRLike(key, l, skip)
			if !ok {
				break // the row is empty apart from filtered entries
			}
			if !e.ID.Equal(n.id) {
				return hopDecision{next: e, nextLevel: l + 1}
			}
			// digit resolved by staying put; move to the next level
		}
		return hopDecision{terminal: true}
	default:
		panic(fmt.Sprintf("core: unknown surrogate scheme %v", n.mesh.cfg.Surrogate))
	}
}

// scanPRRLike implements the distributed PRR-like variant at row l: exact
// digit if present; otherwise the filled digit sharing the most significant
// bits with the desired digit, ties broken toward the numerically higher
// digit. (The paper's "after first hole always pick the numerically highest
// digit" is the same rule once the desired digit is treated as its best-bit
// target; we keep the per-level best-bit rule, which also yields a unique
// root under Property 1 by the Theorem 2 argument.) It returns the chosen
// slot's first entry that skip lets through.
func (n *Node) scanPRRLike(key ids.ID, l int, skip func(route.Entry) bool) (route.Entry, bool) {
	want := key.Digit(l)
	if e, ok := firstUsable(n.table.SetView(l, want), skip); ok {
		return e, true
	}
	bestScore := -1
	var best route.Entry
	for d := 0; d < n.table.Base(); d++ {
		dd := ids.Digit(d)
		if dd == want {
			continue
		}
		e, ok := firstUsable(n.table.SetView(l, dd), skip)
		if !ok {
			continue
		}
		score := bitMatch(want, dd)*64 + d // bit match dominates; ties -> higher digit
		if score > bestScore {
			bestScore, best = score, e
		}
	}
	return best, bestScore >= 0
}

func firstUsable(set []route.Entry, skip func(route.Entry) bool) (route.Entry, bool) {
	for _, e := range set {
		if skip == nil || !skip(e) {
			return e, true
		}
	}
	return route.Entry{}, false
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

// NextHopDecision exposes one local surrogate-routing decision — the inner
// loop of every locate and publish — for the microbenchmark harness, which
// lives outside this package. It returns the chosen neighbor entry, the
// digits-resolved counter the message would carry onward, and whether n is
// the terminal (root) for key.
func (n *Node) NextHopDecision(key ids.ID, level int) (route.Entry, int, bool) {
	n.mu.Lock()
	dec := n.nextHop(key, level, nil)
	n.mu.Unlock()
	return dec.next, dec.nextLevel, dec.terminal
}

// SurrogateFor returns the root node for a key as seen from n — the node a
// publish or query for the key would terminate at (Theorem 2: unique given
// Property 1) — and the hops taken to reach it.
func (n *Node) SurrogateFor(key ids.ID, cost *netsim.Cost) (*Node, int, error) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.route.Key, f.route.Op = key, wire.RouteOpRoute
	w := f.newWalk(stepNone, &f.route, key, cost)
	root, err := n.runWalk(f)
	if err != nil {
		return nil, 0, err
	}
	return root, w.hops, nil
}

// RouteToNode routes a message from n to the node owning exactly the given
// ID, returning the destination and the hop count. It fails if no such node
// exists (the walk terminates at a surrogate with a different ID).
func (n *Node) RouteToNode(target ids.ID, cost *netsim.Cost) (*Node, int, error) {
	root, hops, err := n.SurrogateFor(target, cost)
	if err != nil {
		return nil, 0, err
	}
	if !root.id.Equal(target) {
		return nil, hops, fmt.Errorf("core: no node %v (surrogate %v reached)", target, root.id)
	}
	return root, hops, nil
}

// noteDead reacts to a failed probe of a neighbor: the entry is removed
// everywhere and holes are repaired (Section 5.2). It returns the number of
// dead forward links removed from this node's table (one per level the
// corpse occupied).
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

// repairHoles refills the given slots after `dead` was removed (Section
// 5.2). It runs the level-by-level search of §4.2 (nearest.go) once per
// holed slot over ONE shared candidate pool — a corpse that holed several
// levels of the same table would otherwise trigger several searches
// re-querying largely the same peers — and installs up to R closest live
// candidates per slot, so a repaired set holds the same entries a fresh
// table construction would and Property 2 survives churn. Holes must be in
// ascending level order (Remove reports them that way).
func (n *Node) repairHoles(holes []slotRef, dead ids.ID, cost *netsim.Cost) {
	if len(holes) == 0 {
		return
	}
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
