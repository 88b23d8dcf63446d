package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// Batched soft-state maintenance (Section 6.5). The per-object, per-link
// versions of the heartbeat and the republish refresh send traffic
// proportional to links and objects×hops respectively; a maintenance epoch
// over a settled mesh repeats almost all of that work. The two entry points
// here coalesce it:
//
//   - Mesh.SweepDeadAll probes each distinct neighbor once per epoch
//     mesh-wide and shares the verdict across every node that links to it,
//     so probe traffic scales with distinct addresses rather than total
//     links.
//   - Node.republishBatched drives all of a server's publish records as one
//     caravan: at every node on the way records sharing the same next hop
//     ride a single grouped message, so refresh traffic scales with the
//     distinct routes out of each node rather than objects×hops.
//
// Both preserve the unbatched semantics — SweepDead's per-level dead-link
// counts and publishPath's deposit/convergence/teardown behavior — and both
// stay deterministic: nodes in ID order, records in (GUID, salt) order,
// next-hop groups in first-seen order — each read off the storage that keeps
// it (Mesh.Nodes, PublishedObjects, the caravan's group chains), with no map
// iterated and nothing re-sorted per call.

// SweepDeadAll runs the Section 6.5 heartbeat for every node with epoch-wide
// probe coalescing: each distinct neighbor is probed once (by the first node
// in ID order that links to it) and the liveness verdict is shared, after
// which every holder of a dead link drops it through the same noteDead path
// the per-node sweep uses — per-level removal counts and repair behavior are
// identical, only the redundant probes are gone. Returns the total number of
// dead links removed across the mesh.
//
// Order comes from the storage: nodes in ID order (Mesh.Nodes), each node's
// links in the table's own (level, digit, rank) order through one reusable
// flat snapshot — the order Node.SweepDead probes in, so repairs (and with
// them eviction tie-breaks) run as in the unbatched sweep. A neighbor held at
// several levels needs no per-node dedup here: a live one costs a verdict
// lookup, and a corpse's second noteDead finds nothing left to remove.
func (m *Mesh) SweepDeadAll(cost *netsim.Cost) int {
	f := m.getFrames()
	sc := &f.sweep
	removed := 0
	for _, n := range m.Nodes() {
		sc.links = n.appendNeighbors(sc.links[:0])
		for _, e := range sc.links {
			alive, probed := sc.verdict.Get(e.ID)
			if !probed {
				_, err := m.invoke(n.addr, e, msgPing, msgAck, cost, false)
				alive = err == nil
				sc.verdict.Put(e.ID, alive)
			}
			if !alive {
				removed += n.noteDead(e, cost)
			}
		}
	}
	sc.verdict.Clear()
	m.putFrames(f)
	return removed
}

// sweepScratch is SweepDeadAll's reusable state, recycled with the
// operation's msgFrames like caravanScratch: the epoch's liveness verdicts
// (cleared, so the table keeps its slots) and the flat link snapshot.
type sweepScratch struct {
	verdict ids.Table[bool]
	links   []route.Entry
}

// caravanScratch is republishBatched's reusable state, recycled with the
// operation's msgFrames so a steady-state epoch allocates none of it. recs is
// an arena: every batch — the server's initial one and each group forwarded
// to a next hop — is a contiguous window of it, written once when the batch
// is formed and never copied again. Records of the batch being decided are
// chained into next-hop groups through link (record index -> next record of
// the same group), so grouping needs no map and no per-group slice.
type caravanScratch struct {
	guids     []ids.ID // the server's published objects in ID order (RepublishAll)
	recs      []wire.PubRec
	queue     []caravanBatch
	groups    []caravanGroup
	link      []int // per record of the current batch: next record in its group, -1 at the tail
	nextLevel []int // per record: digits-resolved counter after the decided hop
	terminals []int
	stale     []staleTrail
	dead      []ids.ID // hops that failed from the node being decided
}

// caravanBatch is the window recs[lo:hi] waiting to be visited at node.
type caravanBatch struct {
	node   *Node
	lo, hi int
}

// caravanGroup is the records of one batch that leave through the same next
// hop, chained head -> ... -> tail in first-seen order.
type caravanGroup struct {
	next       route.Entry
	head, tail int
}

// staleTrail is a convergence found while depositing: record rec met an older
// trail arriving from `from`, to be torn down backwards.
type staleTrail struct {
	rec  int
	from route.Entry
}

// decide makes the routing decision for the records of batch b chained from
// head (indices relative to b.lo), under one hold of cur's lock. Terminal
// records join sc.terminals; the rest are grouped by next hop in first-seen
// order into NEW groups appended to sc.groups — a re-decide after a dead hop
// never merges into a group formed by an earlier decision, which may already
// have been sent.
func (sc *caravanScratch) decide(cur *Node, b caravanBatch, head int) {
	from := len(sc.groups)
	filter := hopFilter{dead: sc.dead}
	cur.mu.Lock()
	for i := head; i >= 0; {
		following := sc.link[i]
		sc.link[i] = -1
		r := &sc.recs[b.lo+i]
		dec := cur.nextHop(r.Key, r.Level, &filter)
		if dec.terminal {
			sc.terminals = append(sc.terminals, i)
		} else {
			// nextLevel is the counter after the decided hop; the record's own
			// Level stays the arrival level so a failed hop re-decides from
			// the same state a single-record walk would.
			sc.nextLevel[i] = dec.nextLevel
			gi := from
			for gi < len(sc.groups) && !sc.groups[gi].next.ID.Equal(dec.next.ID) {
				gi++
			}
			if gi == len(sc.groups) {
				sc.groups = append(sc.groups, caravanGroup{next: dec.next, head: i, tail: i})
			} else {
				sc.link[sc.groups[gi].tail] = i
				sc.groups[gi].tail = i
			}
		}
		i = following
	}
	cur.mu.Unlock()
}

// republishBatched re-lays the publish paths of the served objects listed in
// cf.batch.guids — cf is the caller's bundle, the caravan's scratch and
// message — visiting nodes exactly as publishPath would (deposit at every hop,
// convergence teardown, root flag at the terminal) but carrying all records
// together and spending ONE message per distinct next hop per node instead
// of one per record. Records that terminate on a mid-insertion node fall
// back to the single-path walk, whose driver implements the Figure 10 bounce.
func (n *Node) republishBatched(cf *msgFrames, cost *netsim.Cost) {
	spec := n.mesh.cfg.Spec
	now := n.mesh.net.Epoch()
	maxHops := n.table.Levels()*n.table.Base() + 8 // same loop guard as runWalk
	cf.caravan.Server, cf.caravan.ServerAddr = n.id, n.addr
	sc := &cf.batch
	sc.recs, sc.queue = sc.recs[:0], sc.queue[:0]
	for _, g := range sc.guids {
		for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
			sc.recs = append(sc.recs, wire.PubRec{GUID: g, Key: spec.Salt(g, i), PrevAddr: n.addr, Salt: i})
		}
	}
	sc.queue = append(sc.queue, caravanBatch{n, 0, len(sc.recs)})

	for qi := 0; qi < len(sc.queue); qi++ {
		b := sc.queue[qi]
		cur := b.node
		// sc.dead holds hops that failed from THIS node; a verdict is not
		// carried to the next node's decisions (a partition cuts links, not
		// hosts).
		sc.dead = sc.dead[:0]

		// Visit: deposit every record at this node under one hold of its
		// lock; a changed lastHop on an existing record means this path
		// converged onto a stale trail, which is torn down backwards (Figure
		// 9) exactly as in publishPath, once the lock is released.
		sc.stale = sc.stale[:0]
		cur.mu.Lock()
		for i := b.lo; i < b.hi; i++ {
			r := &sc.recs[i]
			if _, from, converged := cur.depositOnPath(pointerRec{
				guid:       r.GUID,
				server:     n.id,
				serverAddr: n.addr,
				key:        r.Key,
				lastHop:    r.PrevID,
				lastAddr:   r.PrevAddr,
				level:      uint8(r.Level),
				epoch:      now,
			}, n.id); converged {
				sc.stale = append(sc.stale, staleTrail{i, from})
			}
		}
		cur.mu.Unlock()
		for _, st := range sc.stale {
			r := &sc.recs[st.rec]
			cur.deleteBackward(r.GUID, r.Key, n.id, st.from, n.id, cost)
		}

		// Decide next hops for the whole batch, group records by next node in
		// first-seen order, and forward each group with a single message. A
		// dead next hop is noted once and its group's records re-decided with
		// the corpse excluded, like runWalk's retry-through-secondaries;
		// the new groups append to the worklist and new terminals join the
		// batch's terminal set.
		count := b.hi - b.lo
		sc.link = sc.link[:0]
		for i := 1; i < count; i++ {
			sc.link = append(sc.link, i)
		}
		sc.link = append(sc.link, -1)
		if cap(sc.nextLevel) < count {
			sc.nextLevel = make([]int, count)
		}
		sc.nextLevel = sc.nextLevel[:count]
		sc.groups, sc.terminals = sc.groups[:0], sc.terminals[:0]
		sc.decide(cur, b, 0)

		for gi := 0; gi < len(sc.groups); gi++ {
			g := sc.groups[gi]
			// The forwarded records ride the CaravanStep hop itself (one
			// message per distinct next hop, as before): the group's window
			// of the arena is both the message body and the next batch.
			lo := len(sc.recs)
			for i := g.head; i >= 0; i = sc.link[i] {
				if sc.recs[b.lo+i].Hops >= maxHops {
					continue // inconsistent mesh; drop like RepublishAll drops errors
				}
				sc.recs = append(sc.recs, sc.recs[b.lo+i])
				r := &sc.recs[len(sc.recs)-1]
				r.Level = sc.nextLevel[i]
				r.PrevID, r.PrevAddr = cur.id, cur.addr
				r.Hops++
			}
			cf.caravan.Recs = sc.recs[lo:]
			next, err := n.mesh.invoke(cur.addr, g.next, &cf.caravan, msgAck, cost, true)
			if err != nil {
				sc.recs = sc.recs[:lo]
				sc.dead = append(sc.dead, g.next.ID)
				cur.noteDead(g.next, cost)
				sc.decide(cur, b, g.head)
				continue
			}
			if len(sc.recs) > lo {
				sc.queue = append(sc.queue, caravanBatch{next, lo, len(sc.recs)})
			}
		}

		handleTerminalRecords(n, cur, sc.recs[b.lo:b.hi], sc.terminals, cost)
	}
	cf.caravan.Recs = nil
}

// handleTerminalRecords finishes records whose walk ends at cur: flag them
// as roots, unless cur is still inserting — then fall back to the unbatched
// publishPath, which implements the Figure 10 bounce off the pre-insertion
// surrogate.
func handleTerminalRecords(server, cur *Node, recs []wire.PubRec, idxs []int, cost *netsim.Cost) {
	if len(idxs) == 0 {
		return
	}
	cur.mu.Lock()
	inserting := cur.state.load() == stateInserting
	bounce := inserting && !cur.psurrogate.ID.IsZero()
	if !bounce {
		for _, i := range idxs {
			// Its own probe: the deposit that laid the record was an earlier
			// hold of cur's lock.
			if st := cur.find(recs[i].GUID); st != nil {
				st.flagRoot(server.id, recs[i].Key)
			}
		}
	}
	cur.mu.Unlock()
	if bounce {
		// A bundle of the walks' own: recs is a window of the caravan's.
		f := server.mesh.getFrames()
		for _, i := range idxs {
			_ = server.publishPath(f, recs[i].GUID, recs[i].Key, wideArea, cost)
		}
		server.mesh.putFrames(f)
	}
}
