package core

import (
	"errors"
	"slices"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// sortedGUIDs appends the keys of one of a node's GUID-keyed tables — the
// pointer store, the published set — to dst in ascending ID order (dst is
// expected empty: the whole result is sorted). They are the
// per-node structures still kept in a hash table, probed and never walked in
// order; pointer re-routing and republish order — which decide convergence
// teardowns and message costs at every peer — must not be slot order.
// (Routing state needs no such helper: route.Table stores its sets and
// backpointers in canonical order.)
func sortedGUIDs[V any](dst []ids.ID, t *ids.Table[V]) []ids.ID {
	for i := 0; i < t.Slots(); i++ {
		if g, _, ok := t.At(i); ok {
			dst = append(dst, g)
		}
	}
	slices.SortFunc(dst, ids.ID.Compare)
	return dst
}

// Leave removes the node gracefully (Section 5.1, Figure 12): a two-phase
// voluntary delete that keeps objects available throughout.
//
// Phase 1 notifies every backpointer holder: the link is marked "leaving"
// and replacement candidates (the departing node's own slot-mates) are
// offered; holders re-route pointer paths that ran through the departing
// node as if it were already gone.
//
// Phase 2 hands objects rooted here to their post-departure surrogates and
// withdraws the replicas this node itself serves.
//
// Phase 3 sends the final delete notification: holders drop the link
// entirely, and forward neighbors retract their backpointers. Only then does
// the node disconnect.
func (n *Node) Leave(cost *netsim.Cost) error {
	n.mu.Lock()
	if n.state.load() == stateDead {
		n.mu.Unlock()
		return errors.New("core: node already gone")
	}
	n.state.store(stateLeaving)
	backs := n.backsByLevel()
	n.mu.Unlock()

	// Phase 1: leaving notification with per-level replacements. The
	// holder-side work runs in the LeaveNotify dispatch handler
	// (onPeerLeaving); dead holders are skipped, as before.
	f := n.mesh.getFrames()
	for level, holders := range backs {
		if len(holders) == 0 {
			continue
		}
		f.leave.Leaver, f.leave.Level = n.id, level
		f.leave.Replacements = n.replacementsAt(level)
		for _, h := range holders {
			_, _ = n.mesh.oneWayMsg(n.addr, h, &f.leave, cost)
		}
	}
	f.leave.Replacements = nil

	// Phase 2a: withdraw replicas this node serves (they depart with it).
	for _, g := range n.PublishedObjects() {
		n.unpublish(f, g, cost)
	}

	// Phase 2b: objects rooted here move to their new surrogate roots,
	// routing as if this node did not exist. Availability is guaranteed
	// because the transfer completes (with acknowledgments — our synchronous
	// calls) before the final delete notification goes out.
	n.reroutePointers(cost, n.id, true, true, func(r *pointerRec) bool {
		return r.root && !r.server.Equal(n.id)
	})

	// Phase 3: final delete — everyone who links to or from n forgets it.
	n.mu.Lock()
	backs = n.backsByLevel()
	var forwards []route.Entry
	n.table.ForEachNeighbor(func(_ int, e route.Entry) { forwards = append(forwards, e) })
	n.state.store(stateDead)
	n.mu.Unlock()

	seen := map[ids.ID]struct{}{}
	f.deleted.ID = n.id
	for _, holders := range backs {
		for _, h := range holders {
			if _, ok := seen[h.ID]; ok {
				continue
			}
			seen[h.ID] = struct{}{}
			_, _ = n.mesh.oneWayMsg(n.addr, h, &f.deleted, cost)
		}
	}
	f.drop.ID = n.id
	for _, fe := range forwards {
		if _, ok := seen[fe.ID]; ok {
			continue
		}
		// The DropLinks handler removes n from the peer's table, which also
		// clears any backpointer entries for n.
		_, _ = n.mesh.oneWayMsg(n.addr, fe, &f.drop, cost)
	}
	n.mesh.putFrames(f)

	n.mesh.net.Detach(n.addr)
	n.mesh.unregister(n)
	return nil
}

// backsByLevel returns the node's backpointer holders indexed by level,
// closest holder first within a level — the order Leave notifies them in. The
// caller holds n.mu.
func (n *Node) backsByLevel() [][]route.Entry {
	backs := make([][]route.Entry, n.table.Levels())
	for l := range backs {
		if n.table.BackCount(l) > 0 {
			backs[l] = n.table.Backs(l)
		}
	}
	return backs
}

// replacementsAt returns the departing node's slot-mates at (level, own
// digit) — valid substitutes for any holder whose level-`level` set contains
// the departing node, since holder, departing node and slot-mates all share
// the same length-`level` prefix and digit.
func (n *Node) replacementsAt(level int) []route.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []route.Entry
	for _, e := range n.table.SetView(level, n.id.Digit(level)) {
		if !e.ID.Equal(n.id) && !e.Leaving {
			out = append(out, e)
		}
	}
	return out
}

// onPeerLeaving is the phase-1 handler at a backpointer holder: mark links
// leaving, adopt offered replacements, and re-route pointer paths that ran
// through the leaver as if it were gone.
func (h *Node) onPeerLeaving(leaver ids.ID, level int, replacements []route.Entry, cost *netsim.Cost) {
	for _, r := range replacements {
		if r.ID.Equal(h.id) {
			continue
		}
		r.Distance = h.mesh.net.Distance(h.addr, r.Addr)
		r.Pinned, r.Leaving = false, false
		h.mu.Lock()
		improves := h.table.WouldImprove(level, r.ID, r.Distance) // a hole counts as an improvement
		h.mu.Unlock()
		if improves {
			h.addNeighborAndNotify(level, r, cost)
		}
	}
	// Republish local pointers whose next hop is the leaver, routing as if
	// it did not exist ("it republishes any local object pointers which
	// normally route through A as if A did not exist"). This happens BEFORE
	// the link is marked leaving: until the bypass path carries pointers,
	// concurrent queries must keep routing through the (still live) leaver,
	// or they could reach a pointer-less surrogate and fail.
	h.reroutePointers(cost, leaver, false, true, func(r *pointerRec) bool {
		if r.root {
			return false
		}
		dec := h.nextHop(r.key, int(r.level), nil)
		return !dec.terminal && dec.next.ID.Equal(leaver)
	})
	h.mu.Lock()
	h.table.MarkLeaving(leaver)
	h.mu.Unlock()
}

// onPeerDeleted is the phase-3 handler: drop the departed node and repair
// any hole it leaves (Property 1), preferring the replacements adopted in
// phase 1 (already in the table) and falling back to local search.
func (h *Node) onPeerDeleted(dead ids.ID, cost *netsim.Cost) {
	h.mu.Lock()
	levels := h.table.Remove(dead)
	var holes []slotRef
	for _, l := range levels {
		d := dead.Digit(l)
		if h.table.HasHole(l, d) {
			holes = append(holes, slotRef{l, d})
		}
	}
	h.mu.Unlock()
	h.repairHoles(holes, dead, cost)
}

// Fail removes the node without any notification — a crash, network
// partition or attack (Section 5.2). The rest of the overlay discovers the
// failure lazily: probes time out, links are repaired on demand or by
// SweepDead, and objects rooted at the corpse stay unavailable until the
// next republish reaches their new surrogates.
func (m *Mesh) Fail(n *Node) {
	n.mu.Lock()
	n.state.store(stateDead)
	n.mu.Unlock()
	m.net.Detach(n.addr)
	m.unregister(n)
}
