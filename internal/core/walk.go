package core

import (
	"fmt"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// This file is the one way a message moves toward a key. Section 2.3 gives
// every operation the same hop policy — a local surrogate decision from "the
// current routing table, the source and destination GUIDs, and ... the number
// of digits resolved so far", retried through secondaries when a primary is
// dead (Observation 1) and bounced off a terminal that is still inserting
// (Figure 10) — so the policy is written once, in runWalk, and an operation
// is a *step*: what happens at each node the walk arrives at.
//
// The rule that keeps the split honest: a step touches only its receiver. It
// runs under the single hold of the arrival node's lock in which the routing
// decision is also made, and reads or writes that node's pointer store and
// cache and nothing else. Whatever needs a message — tearing down a stale
// trail, verifying a replica — is handed back to the driver as a
// continuation, which runs after the lock is released.
//
// Where operations differ on purpose, the difference is data on the walk (a
// start level, an excluded node, a stub region, bounce off); there is no
// second loop to differ by accident.

// walkStep selects what a walk does at every node it arrives at.
type walkStep uint8

const (
	stepNone    walkStep = iota // plain routing: reach the key's root
	stepDeposit                 // publish and pointer re-routing: store the pointer record
	stepRemove                  // unpublish: drop the server's record and hints naming it
	stepPeek                    // locate: look for pointer records, then for a cached hint
)

// cont is the continuation a step hands back to the driver: work for the
// arrival node that sends messages and so must wait for the lock's release.
type cont uint8

const (
	contNone     cont = iota
	contTeardown      // Figure 9: the deposit converged onto a stale trail; delete it backwards
	contServe         // pointer records are here: go to the closest replica (no decision was made)
	contHint          // a cached mapping is here: verify it with the replica
)

// hopFilter is what a routing decision must route around.
type hopFilter struct {
	// exclude routes as if that node did not exist (Section 5.1's re-routing
	// around a leaver).
	exclude ids.ID
	// dead is one operation's memory of neighbors whose probe failed and of
	// inserting nodes it bounced off; a slice, because it holds a handful of
	// IDs at most and is empty on a healthy walk.
	dead []ids.ID
	// regions, when non-nil, is the mesh's stub labelling and confines the
	// decision to neighbors inside `region` (Section 6.3).
	regions []int
	region  int
}

func (f *hopFilter) active() bool {
	return !f.exclude.IsZero() || len(f.dead) > 0 || f.regions != nil
}

func (f *hopFilter) skip(e route.Entry) bool {
	return e.ID.Equal(f.exclude) ||
		(f.regions != nil && f.regions[e.Addr] != f.region) ||
		idIn(f.dead, e.ID)
}

// walk is the state of one key-directed walk. It lives in the operation's
// msgFrames bundle (newWalk), so a walk allocates nothing of its own.
type walk struct {
	hopFilter

	step walkStep
	// msg is the operation's step message — RouteStep, LocateStep, LocalStep
	// or PtrForward, a frame of the bundle the walk lives in — sent once per
	// hop with the onward digits-resolved counter.
	msg   wire.Msg
	key   ids.ID
	level int // digits resolved at the start node; a re-route resumes at its record's level
	// resume starts the walk past its first node's step: a re-route forwards
	// a record its start node already holds.
	resume bool
	// noBounce lets the walk end AT a node that is still inserting. Root
	// transfer needs it: the inserter is the new root the record moves to.
	noBounce bool
	// keepPath records the nodes visited, for the locate cache's return-path
	// deposit and for audits.
	keepPath bool
	cost     *netsim.Cost

	// The pointer record the step deposits, removes or looks for.
	guid, server ids.ID
	serverAddr   netsim.Addr
	epoch        int64
	prevID       ids.ID // the node the record last passed through; zero at the server
	prevAddr     netsim.Addr
	origin       ids.ID // the start node: a stale trail is torn down no further back

	// aside is the continuation's operand: the stale trail's last hop, or the
	// replica a cached hint names.
	aside route.Entry
	// st is the pointer-store state arrive found or made at the node whose
	// lock the driver holds — the hold's one probe, which settle reuses — and
	// is nil outside that hold (the store's rule: nothing outlives the lock).
	st *objState

	hops    int          // application-level hops taken
	res     LocateResult // a peek walk's answer
	visited []ids.ID     // loop memory (Section 4.3), restarted at every bounce
	path    []*Node
}

// newWalk resets the bundle's walk for one walk toward key, keeping the
// buffers of the last one. (Cleared in place, then filled: assigning a
// composite literal that reads *w would build it in a temporary first.)
func (f *msgFrames) newWalk(step walkStep, msg wire.Msg, key ids.ID, cost *netsim.Cost) *walk {
	w := &f.walk
	clear(w.path)
	dead, visited, path := w.dead[:0], w.visited[:0], w.path[:0]
	if visited == nil {
		visited = f.visitedBuf[:0]
	}
	*w = walk{}
	w.dead, w.visited, w.path = dead, visited, path
	w.step, w.msg, w.key, w.cost = step, msg, key, cost
	return w
}

// confine restricts the bundle's walk to one stub region: its decisions, its
// bounce and the replicas it will serve ("treats the local network as its
// entire domain"), its hops travelling as LocalStep. A negative region is
// the wide area and confines nothing.
func (f *msgFrames) confine(m *Mesh, region int) {
	if region >= 0 {
		w := &f.walk
		w.regions, w.region = m.regions, region
		f.local.Key, f.local.Region = w.key, region
		w.msg = &f.local
	}
}

// runWalk drives the walk prepared in f from n until it ends — at the key's
// root, or wherever its step stopped it (a peek walk that found the object) —
// and returns the node it ended at. An error means the mesh is inconsistent:
// the walk re-entered a node or outran the hop budget.
func (n *Node) runWalk(f *msgFrames) (*Node, error) {
	w := &f.walk
	w.origin = n.id
	if w.step == stepPeek && w.regions == nil && n.mesh.cfg.LocateCacheCap > 0 {
		w.keepPath = true
	}
	cur, level := n, w.level
	arrived := !w.resume
	// Generous: Theorem 2 implies at most Levels hops. Every message the walk
	// sends — a hop, a bounce, a probe that finds a corpse — spends budget, so
	// no sequence of failures can hold a walk at one node forever.
	maxHops := n.table.Levels()*n.table.Base() + 8
	for sends := 0; sends <= maxHops; sends++ {
		if arrived {
			// Loop detection ("including information in the message header
			// about where the request has been"). Only re-ENTERING a node over
			// the network is a loop; re-deciding where the walk stands is not.
			if idIn(w.visited, cur.id) {
				return cur, fmt.Errorf("core: routing to %v re-entered %v (mesh inconsistent)", w.key, cur.id)
			}
			w.visited = append(w.visited, cur.id)
			if w.keepPath {
				w.path = append(w.path, cur)
			}
		}

		// The walk's one hold of cur's lock: the step, then the decision.
		var dec hopDecision
		after := contNone
		cur.mu.Lock()
		if arrived {
			after = w.arrive(cur, level)
		}
		if after != contServe {
			dec = w.decide(cur, level)
		}
		w.st = nil
		cur.mu.Unlock()
		arrived = false

		if after == contServe {
			if w.serveQuery(cur, f) {
				return cur, nil
			}
			// Every record here was stale and is purged now: route onward.
			cur.mu.Lock()
			after = w.peekCache(cur)
			dec = w.decide(cur, level)
			cur.mu.Unlock()
		}
		switch after {
		case contTeardown:
			cur.deleteBackward(w.guid, w.key, w.server, w.aside, w.origin, w.cost)
		case contHint:
			if w.serveHint(cur, f) {
				return cur, nil
			}
		}

		if dec.terminal {
			return cur, nil
		}
		if dec.bounce {
			// Figure 10: bounce to the pre-insertion surrogate, which routes as
			// if the inserter did not exist. The inserter joins the dead list —
			// a single excluded ID is not enough, because a walk that bounces
			// off a second inserter could otherwise re-enter (and wrongly
			// terminate at) the first — and the loop memory restarts: the
			// surrogate may be a node the walk already passed, even its start,
			// and re-deciding there without the inserter is not a loop.
			w.dead = append(w.dead, cur.id)
			w.visited = w.visited[:0]
		}
		w.fillStep(dec.nextLevel)
		next, err := n.mesh.invoke(cur.addr, dec.next, w.msg, msgAck, w.cost, true)
		if err != nil {
			if dec.bounce {
				// The pre-insertion surrogate died (join racing churn): end
				// here rather than fail every walk that lands on this node.
				cur.mu.Lock()
				w.settle(cur)
				cur.mu.Unlock()
				return cur, nil
			}
			// Failed hop (Observation 1): remember the corpse for this walk,
			// repair the table, and re-decide at the same node.
			w.dead = append(w.dead, dec.next.ID)
			cur.noteDead(dec.next, w.cost)
			continue
		}
		cur, level, arrived = next, dec.nextLevel, true
		w.hops++
	}
	return cur, fmt.Errorf("core: routing to %v exceeded %d hops (mesh inconsistent)", w.key, maxHops)
}

// decide makes cur's routing decision for the walk. At a terminal it either
// bounces (Figure 10: a node that is still inserting must not act as a
// terminal — its table is preliminary, and ending a surrogate walk here
// would, e.g., give a concurrent Join a near-empty table to seed from) or
// settles the walk. The pre-insertion surrogate is a next hop like any other
// and passes the same filter; a node the walk already bounced off does not
// bounce it again. The caller holds cur.mu.
func (w *walk) decide(cur *Node, level int) hopDecision {
	dec := cur.nextHop(w.key, level, &w.hopFilter)
	if !dec.terminal {
		return dec
	}
	if psur := cur.psurrogate; !w.noBounce && cur.state.load() == stateInserting &&
		!psur.ID.IsZero() && !idIn(w.dead, cur.id) && !w.skip(psur) {
		// Resume from the arrival level if it is below |α|: the inserter's
		// preliminary table may have resolved rows level..|α|-1 differently
		// than its surrogate would, and "as if absent" means re-deciding them.
		return hopDecision{next: psur, nextLevel: min(level, cur.alpha.Len()), bounce: true}
	}
	w.settle(cur)
	return dec
}

// settle ends the walk at cur, its terminal: a deposit walk flags the record
// it just laid as the path's root — in the state arrive left in w.st, or,
// when the walk re-decided here after releasing the lock (a failed hop, a
// dead pre-insertion surrogate, a re-route's first node), the one a fresh
// probe finds. A stub-local branch has no root of its own — it is a spur of
// the wide-area trail that owns the (server, key) record. The caller holds
// cur.mu.
func (w *walk) settle(cur *Node) {
	if w.step != stepDeposit || w.regions != nil {
		return
	}
	st := w.st
	if st == nil {
		st = cur.find(w.guid)
	}
	if st != nil {
		st.flagRoot(w.server, w.key)
	}
}

// arrive runs the walk's step at cur, reached with `level` digits resolved,
// and reports the continuation the driver owes it. The caller holds cur.mu,
// and the step touches nothing but cur.
func (w *walk) arrive(cur *Node, level int) cont {
	switch w.step {
	case stepDeposit:
		st, from, converged := cur.depositOnPath(pointerRec{
			guid:       w.guid,
			server:     w.server,
			serverAddr: w.serverAddr,
			key:        w.key,
			lastHop:    w.prevID,
			lastAddr:   w.prevAddr,
			level:      uint8(level),
			epoch:      w.epoch,
		}, w.origin)
		w.st = st
		w.prevID, w.prevAddr = cur.id, cur.addr
		// A stub-local branch never tears down: it meets the wide-area trail
		// of its own record by design.
		if converged && w.regions == nil {
			w.aside = from
			return contTeardown
		}
	case stepRemove:
		cur.drop(cur.find(w.guid), w.guid, w.server, w.key)
	case stepPeek:
		// Records here make this the walk's last hop (unless every one proves
		// stale), so no decision is made for it.
		if cur.find(w.guid) != nil {
			return contServe // a state in the store holds at least one record
		}
		return w.peekCache(cur)
	}
	return contNone
}

// peekCache looks for a cached location mapping at cur. The stub-local phase
// of a query skips the cache: a hint may name a replica outside the stub.
// The caller holds cur.mu.
func (w *walk) peekCache(cur *Node) cont {
	if cur.cache == nil || w.regions != nil {
		return contNone
	}
	ent, ok := cur.cache.lookup(w.guid, cur.mesh.net.Epoch())
	if !ok {
		return contNone
	}
	w.aside = entryAt(ent.server, ent.serverAddr)
	return contHint
}

// fillStep stamps the walk's step message for the next send.
func (w *walk) fillStep(level int) {
	switch m := w.msg.(type) {
	case *wire.RouteStep:
		m.Level = level
	case *wire.LocateStep:
		m.Level, m.Hops = level, w.hops
	case *wire.LocalStep:
		m.Level = level
	case *wire.PtrForward:
		m.Level, m.PrevID, m.PrevAddr = level, w.prevID, w.prevAddr
	}
}
