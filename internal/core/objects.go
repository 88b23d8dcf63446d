package core

import (
	"slices"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/stats"
	"tapestry/internal/wire"
)

// pointerRec is one object pointer: the mapping from a GUID to one storage
// server, deposited at every node on the publish path from that server
// toward a root (Section 2.2). Unlike PRR, Tapestry keeps a pointer for
// every replica. Pointers are soft state: they expire unless republished.
type pointerRec struct {
	guid       ids.ID // the object this pointer names
	server     ids.ID
	serverAddr netsim.Addr
	key        ids.ID // the (salted) routing key this path follows
	lastHop    ids.ID // previous node on the publish path; zero at the server
	lastAddr   netsim.Addr
	level      int   // digits resolved when the publish arrived here
	epoch      int64 // deposit/refresh time for expiry
	root       bool  // the publish path terminated at this node
}

// samePath reports whether the record lies on the (server, key) publish
// path — the dedupe identity of a pointer record.
func (r *pointerRec) samePath(server, key ids.ID) bool {
	return r.server.Equal(server) && r.key.Equal(key)
}

// objState is a node's pointer set for one GUID.
type objState struct {
	recs []pointerRec
}

func (o *objState) upsert(r pointerRec) (prev pointerRec, existed bool) {
	for i := range o.recs {
		if o.recs[i].samePath(r.server, r.key) {
			prev = o.recs[i]
			o.recs[i] = r
			return prev, true
		}
	}
	o.recs = append(o.recs, r)
	return pointerRec{}, false
}

func (o *objState) remove(server, key ids.ID) bool {
	for i := range o.recs {
		if o.recs[i].samePath(server, key) {
			o.recs = append(o.recs[:i], o.recs[i+1:]...)
			return true
		}
	}
	return false
}

// depositPointer stores/refreshes a pointer at n and reports the previous
// record on this (server, key) path, for convergence detection during
// pointer redistribution (Section 4.2).
func (n *Node) depositPointer(r pointerRec) (prev pointerRec, existed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.depositLocked(r)
}

// depositLocked is depositPointer for a caller that already holds n.mu (the
// republish caravan deposits a whole batch under one hold).
func (n *Node) depositLocked(r pointerRec) (prev pointerRec, existed bool) {
	// The store is keyed by the *unsalted* GUID so queries (which know only
	// the GUID) find pointers deposited along any salted path.
	st := n.objects[r.guid]
	if st == nil {
		st = &objState{}
		n.objects[r.guid] = st
	}
	return st.upsert(r)
}

// purgePointer removes a stale (server, key) record observed dead or
// no-longer-serving by a query, so subsequent queries stop re-trying it
// until the soft-state refresh re-deposits a live one.
func (n *Node) purgePointer(guid, server, key ids.ID) {
	n.mu.Lock()
	if st := n.objects[guid]; st != nil {
		if st.remove(server, key) && len(st.recs) == 0 {
			delete(n.objects, guid)
		}
	}
	if n.cache != nil {
		// A cache hint naming the same failed server is equally stale; drop
		// it now rather than burning a second probe on it next query.
		n.cache.invalidate(guid, server)
	}
	n.mu.Unlock()
}

// Publish announces that n stores a replica of the object (Section 2.2,
// Figure 2): for each of the |R_ψ| salted roots, a publish message routes
// from n toward the root, depositing an object pointer at every hop.
func (n *Node) Publish(guid ids.ID, cost *netsim.Cost) error {
	n.mu.Lock()
	n.published[guid] = true
	n.mu.Unlock()
	return n.republishObject(guid, cost)
}

// republishObject re-walks all publish paths for one object this node
// serves; used by Publish, the periodic soft-state refresh, and the
// leave/repair paths.
func (n *Node) republishObject(guid ids.ID, cost *netsim.Cost) error {
	spec := n.mesh.cfg.Spec
	var firstErr error
	for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
		key := spec.Salt(guid, i)
		if err := n.publishPath(guid, key, cost); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// publishPath walks one salted path from n to the key's root, depositing
// pointers. Convergence with a stale path triggers backward deletion of the
// outdated trail (Figure 9's DeletePointersBackward), keyed off a changed
// lastHop at an already-present record.
func (n *Node) publishPath(guid, key ids.ID, cost *netsim.Cost) error {
	now := n.mesh.net.Epoch()
	prevID, prevAddr := ids.ID{}, n.addr
	res, err := n.routeToKey(key, cost, wire.RouteOpPublish, func(cur *Node, level int) bool {
		rec := pointerRec{
			guid:       guid,
			server:     n.id,
			serverAddr: n.addr,
			key:        key,
			lastHop:    prevID,
			lastAddr:   prevAddr,
			level:      level,
			epoch:      now,
		}
		old, existed := cur.depositPointer(rec)
		if existed && !old.lastHop.IsZero() && !old.lastHop.Equal(prevID) {
			// The new path converged onto a node that remembers an older
			// path arriving from elsewhere: tear the stale trail down, all
			// the way back to the server (a full republish re-lays the
			// entire path, so everything off it is stale).
			cur.deleteBackward(guid, key, n.id, old.lastHop, old.lastAddr, n.id, cost)
		}
		prevID, prevAddr = cur.id, cur.addr
		return false
	})
	if err != nil {
		return err
	}
	res.node.mu.Lock()
	if st := res.node.objects[guid]; st != nil {
		for i := range st.recs {
			if st.recs[i].samePath(n.id, key) {
				st.recs[i].root = true
			}
		}
	}
	res.node.mu.Unlock()
	return nil
}

// deleteBackward removes the (guid, key, server)-pointer from the stale
// trail starting at (hopID, hopAddr) and walking lastHop links backwards,
// stopping when the trail runs out or reaches stopAt — the node at which the
// path diverged, whose own record (and everything upstream of it) is still
// valid (Figure 9's DeletePointersBackward with its changedNode argument).
func (n *Node) deleteBackward(guid, key, server ids.ID, hopID ids.ID, hopAddr netsim.Addr, stopAt ids.ID, cost *netsim.Cost) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.del.GUID, f.del.Key, f.del.Server, f.del.StopAt = guid, key, server, stopAt
	from := n.addr
	for !hopID.IsZero() && !hopID.Equal(stopAt) && !hopID.Equal(server) {
		target, err := n.mesh.oneWayMsg(from, entryAt(hopID, hopAddr), &f.del, cost)
		if err != nil {
			return
		}
		target.mu.Lock()
		var next ids.ID
		var nextAddr netsim.Addr
		found := false
		protected := false
		if st := target.objects[guid]; st != nil {
			for _, r := range st.recs {
				if r.samePath(server, key) {
					found = true
					next, nextAddr = r.lastHop, r.lastAddr
					// A node that is currently the terminal for this key —
					// or whose record is root-flagged — must never lose the
					// record to a backward sweep: under concurrent
					// membership changes, a walk that followed a stale view
					// could otherwise delete the very record queries depend
					// on (the paper's rule that "the old root not delete
					// pointers until the new root has acknowledged" is this
					// guard in soft-state form). Stale residue that survives
					// here is cleaned up by TTL expiry.
					if r.root || target.nextHop(key, r.level, ids.ID{}, nil).terminal {
						protected = true
					}
				}
			}
			if found && !protected {
				st.remove(server, key)
				if len(st.recs) == 0 {
					delete(target.objects, guid)
				}
			}
		}
		if target.cache != nil && found && !protected {
			// The pointer trail is being torn down; a cached hint naming the
			// same withdrawing server must not outlive it.
			target.cache.invalidate(guid, server)
		}
		target.mu.Unlock()
		if !found || protected {
			return
		}
		from = target.addr
		hopID, hopAddr = next, nextAddr
	}
}

func entryAt(id ids.ID, addr netsim.Addr) route.Entry {
	return route.Entry{ID: id, Addr: addr}
}

// Unpublish withdraws this node's replica of the object: the deletion walks
// each publish path removing this server's pointers (easier than in PRR
// because every replica has its own pointers, Section 2.4). The walk also
// invalidates any cached location hints naming this server at the visited
// nodes, so the serving layer forgets the replica along with the pointers.
func (n *Node) Unpublish(guid ids.ID, cost *netsim.Cost) {
	n.mu.Lock()
	delete(n.published, guid)
	n.mu.Unlock()
	spec := n.mesh.cfg.Spec
	for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
		key := spec.Salt(guid, i)
		_, _ = n.routeToKey(key, nil, wire.RouteOpUnpublish, func(cur *Node, level int) bool {
			cur.mu.Lock()
			if st := cur.objects[guid]; st != nil {
				st.remove(n.id, key)
				if len(st.recs) == 0 {
					delete(cur.objects, guid)
				}
			}
			if cur.cache != nil {
				cur.cache.invalidate(guid, n.id)
			}
			cur.mu.Unlock()
			return false
		})
		_ = cost
	}
}

// LocateResult reports a successful (or failed) object location.
type LocateResult struct {
	Found      bool
	Server     ids.ID      // the replica the query reached
	ServerAddr netsim.Addr // its network address
	FoundAt    ids.ID      // the node whose pointer (or cached hint) satisfied the query
	Hops       int         // application-level hops traversed (incl. final hop to the server)
	FromCache  bool        // the answer came from a cached location mapping, not a pointer
	// Exhausted distinguishes an abnormal termination — the hop budget ran
	// out or the walk revisited a node (a routing loop) — from a genuine
	// miss at the root. A healthy mesh never sets it.
	Exhausted bool
}

// Locate routes a query for the object from n toward a root, stopping at the
// first node holding a pointer and then proceeding to the closest replica
// (Section 2.2, Figure 3). With multiple roots the starting root is chosen
// pseudo-randomly and the rest are tried on failure (Observation 1) — a
// sequential fallback over at most Config.LocateProbes roots. The choice is
// drawn from a per-node SplitMix64 stream (seeded from Config.Seed and the
// node ID) advanced by an atomic counter, so concurrent queries never
// serialize on a shared RNG lock and serial runs replay exactly.
//
// A multi-root locate that succeeds after one or more roots returned a clean
// miss (the pointer chain toward that root decayed, e.g. its root crashed
// since the last republish) triggers read-repair: the serving replica is
// asked to republish toward exactly the missed roots, so the next query that
// draws them hits again.
func (n *Node) Locate(guid ids.ID, cost *netsim.Cost) LocateResult {
	k := n.mesh.cfg.RootSetSize
	start := 0
	if k > 1 {
		start = int(stats.SplitMix64(n.rootSalt+n.locateSeq.Add(1)) % uint64(k))
	}
	var out LocateResult
	var missedBuf [8]int
	missed := missedBuf[:0]
	for t := 0; t < n.mesh.cfg.LocateProbes; t++ {
		salt := (start + t) % k
		res := n.locateVia(guid, salt, cost)
		if res.Found {
			out = res
			break
		}
		out.Exhausted = out.Exhausted || res.Exhausted
		if k > 1 && !res.Exhausted {
			missed = append(missed, salt)
		}
	}
	if out.Found && len(missed) > 0 {
		n.readRepair(guid, out, missed, cost)
	}
	if n.cache != nil {
		if out.Found && out.FromCache {
			n.mesh.cacheHits.Add(1)
		} else {
			n.mesh.cacheMisses.Add(1)
		}
	}
	return out
}

// LocateVia runs a single-root query with an explicit salt; exposed for
// experiments that need deterministic root choice.
func (n *Node) LocateVia(guid ids.ID, salt int, cost *netsim.Cost) LocateResult {
	return n.locateVia(guid, salt, cost)
}

// idIn reports whether id occurs in list. The per-query loop-detection
// memory is a small slice with linear scans: locate paths are a few hops
// (Theorem 2: <= Levels plus small surrogate overhead), so this beats a map
// — and the backing array can live on the caller's stack, keeping the hot
// path allocation-free.
func idIn(list []ids.ID, id ids.ID) bool {
	for i := range list {
		if list[i].Equal(id) {
			return true
		}
	}
	return false
}

func (n *Node) locateVia(guid ids.ID, salt int, cost *netsim.Cost) LocateResult {
	key := n.mesh.cfg.Spec.Salt(guid, salt)
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.locate.GUID, f.locate.Key, f.locate.Salt = guid, key, salt
	cur := n
	level := 0
	hops := 0
	var visitedBuf [12]ids.ID
	visited := visitedBuf[:0]
	// deadSet is the per-query memory of nodes to route around: neighbors
	// whose probe failed and inserting nodes the query bounced off. Lazily
	// allocated, so a healthy walk never touches it.
	var deadSet map[ids.ID]struct{}
	cacheOn := n.mesh.cfg.LocateCacheCap > 0
	// path collects the traversed nodes so a successful answer can be cached
	// at every hop on the (piggybacked) return path; nil when the cache is
	// off, so the default configuration allocates nothing here.
	var path []*Node
	maxHops := n.table.Levels()*n.table.Base() + 8
	for hops <= maxHops {
		if cacheOn {
			path = append(path, cur)
		}
		st, pointers := cur.locateStep(guid, key, level, deadSet, true)
		if pointers {
			if res, ok := cur.serveQuery(f, guid, cost, &hops); ok {
				cachePathDeposit(path, guid, res)
				return res
			}
			// Every record here was stale and is purged now: route onward.
			st, _ = cur.locateStep(guid, key, level, deadSet, false)
		}
		if cacheOn {
			if res, ok := cur.serveFromCache(f, guid, cost, &hops); ok {
				cachePathDeposit(path, guid, res)
				return res
			}
		}
		// Loop detection (Section 4.3: "including information in the message
		// header about where the request has been"). Reached only when the
		// walk re-ENTERS a node over the network; re-deciding at the same
		// node after a failed probe (below) is not a loop.
		if idIn(visited, cur.id) {
			return LocateResult{Exhausted: true}
		}
		visited = append(visited, cur.id)

		// Take the next hop, retrying through surviving entries when the
		// chosen neighbor's host turns out dead (Observation 1 fault
		// tolerance): the corpse goes into deadSet and the decision is
		// re-made at the same node instead of aborting the query. Each retry
		// removes a table entry (noteDead) or excludes one, so the inner
		// loop terminates.
		for {
			dec := st.dec
			if dec.terminal {
				if _, bounced := deadSet[cur.id]; !st.psur.ID.IsZero() && !bounced {
					// Figure 10: an inserting node that cannot satisfy the
					// query bounces it to its pre-insertion surrogate, which
					// routes as if the new node did not exist. The inserter
					// joins deadSet (as in routeToKey: a walk bouncing off a
					// second inserter must not re-enter the first), and the
					// loop memory restarts — the surrogate may be a node the
					// query already passed, even the client itself, and
					// re-deciding there without the inserter is not a loop.
					if deadSet == nil {
						deadSet = make(map[ids.ID]struct{}, 2)
					}
					deadSet[cur.id] = struct{}{}
					visited = visited[:0]
					f.locate.Level, f.locate.Hops = level, hops
					next, err := n.mesh.invoke(cur.addr, st.psur, &f.locate, msgAck, cost, true)
					if err != nil {
						return LocateResult{}
					}
					cur = next
					// Resume from the arrival level if below |α| (the key
					// only provably shares min(arrival, |α|) digits with
					// psur).
					if st.alpha.Len() < level {
						level = st.alpha.Len()
					}
					hops++
					break
				}
				return LocateResult{} // true root reached without a pointer
			}
			f.locate.Level, f.locate.Hops = dec.nextLevel, hops
			next, err := n.mesh.invoke(cur.addr, dec.next, &f.locate, msgAck, cost, true)
			if err != nil {
				if deadSet == nil {
					deadSet = make(map[ids.ID]struct{}, 2)
				}
				deadSet[dec.next.ID] = struct{}{}
				cur.noteDead(dec.next, cost)
				st, _ = cur.locateStep(guid, key, level, deadSet, false)
				continue
			}
			cur = next
			level = dec.nextLevel
			hops++
			break
		}
	}
	return LocateResult{Exhausted: true}
}

// hopStep is what a walk needs from the node it stands on to move: the
// routing decision and — only where Figure 10's bounce can apply, at a
// terminal that is still inserting — the insertion-window state (psur stays
// zero everywhere else).
type hopStep struct {
	dec   hopDecision
	psur  route.Entry
	alpha ids.Prefix
}

// locateStep is a locate walk's one acquisition of cur's lock per hop. With
// checkStore it first looks for pointer records for guid and, finding any,
// reports pointers and decides nothing (serveQuery takes over — that is the
// walk's last hop, unless every record proves stale); otherwise it makes the
// routing decision for key. The store is consulted once per arrival: a
// re-decision after a failed probe or a purge passes checkStore false.
func (cur *Node) locateStep(guid, key ids.ID, level int, deadSet map[ids.ID]struct{}, checkStore bool) (st hopStep, pointers bool) {
	cur.mu.Lock()
	defer cur.mu.Unlock()
	if checkStore {
		if o := cur.objects[guid]; o != nil && len(o.recs) > 0 {
			return st, true
		}
	}
	st.dec = cur.nextHop(key, level, ids.ID{}, deadSet)
	if st.dec.terminal && cur.state.load() == stateInserting {
		st.psur, st.alpha = cur.psurrogate, cur.alpha
	}
	return st, false
}

// cachePathDeposit records a successful answer at every upstream hop of the
// query path — piggybacked on the response, charging no messages. The last
// path element (the node that answered) is skipped: its own pointer store or
// cache already answers. A nil path (cache off) is a no-op.
func cachePathDeposit(path []*Node, guid ids.ID, res LocateResult) {
	if len(path) < 2 {
		return
	}
	now := path[0].mesh.net.Epoch()
	for _, p := range path[:len(path)-1] {
		p.cacheDeposit(guid, res.Server, res.ServerAddr, now)
	}
}

// verifyReplica pays the final hop to a claimed replica and checks, under
// the replica's own lock, that it still publishes the object. This is THE
// consistency rule of the serving layer: no pointer record and no cached
// hint is ever served without this check succeeding. The exchange uses the
// verify frames of f, the calling walk's bundle.
func (cur *Node) verifyReplica(f *msgFrames, guid, server ids.ID, addr netsim.Addr, cost *netsim.Cost) bool {
	f.verify.GUID = guid
	if _, err := cur.mesh.invoke(cur.addr, entryAt(server, addr), &f.verify, &f.verifyResp, cost, true); err != nil {
		return false
	}
	return f.verifyResp.Serves
}

// serveQuery checks cur's pointer store for the object; on a hit the query
// proceeds to the closest live replica known here. The lock is held only for
// a snapshot of the records (into a stack buffer — no heap traffic at
// realistic replica counts); distance evaluation runs outside it, since on
// lazy graph metrics a cold Distance is a Dijkstra and must not stall every
// operation contending for this node. Selection is a single pass (the old
// implementation re-scanned and spliced a candidate copy per probe, O(k²)
// per pointer hit), and a replica that turns out dead — or live but no
// longer publishing — is purged from the store on the spot, so subsequent
// queries stop burning a probe on it until the soft-state refresh
// re-deposits a live pointer. locateVia calls it only at a node where
// locateStep saw records — the walk's last hop — so the hops before it do not
// pay for zeroing the 1.6 KB buffer.
func (cur *Node) serveQuery(f *msgFrames, guid ids.ID, cost *netsim.Cost, hops *int) (LocateResult, bool) {
	var buf [16]pointerRec
	for {
		recs := buf[:0]
		cur.mu.Lock()
		if st := cur.objects[guid]; st != nil {
			recs = append(recs, st.recs...)
		}
		cur.mu.Unlock()
		if len(recs) == 0 {
			return LocateResult{}, false
		}
		// "If multiple pointers are encountered, the query proceeds to the
		// closest replica to the current node."
		best := 0
		bestD := cur.mesh.net.Distance(cur.addr, recs[0].serverAddr)
		for i := 1; i < len(recs); i++ {
			if d := cur.mesh.net.Distance(cur.addr, recs[i].serverAddr); d < bestD {
				best, bestD = i, d
			}
		}
		rec := recs[best]
		if !cur.verifyReplica(f, guid, rec.server, rec.serverAddr, cost) {
			// Stale pointer (dead host, reused address, or a replica that
			// withdrew): drop it and re-select from what remains.
			cur.purgePointer(guid, rec.server, rec.key)
			continue
		}
		*hops++
		return LocateResult{
			Found:      true,
			Server:     rec.server,
			ServerAddr: rec.serverAddr,
			FoundAt:    cur.id,
			Hops:       *hops,
		}, true
	}
}

// serveFromCache answers the query from cur's cached location mapping, if
// any. The hint is verified with the replica itself before being served — a
// cache entry can short-cut the route but never vouch for liveness — and a
// failed verification drops the entry and reports a miss so the query
// resumes ordinary routing.
func (cur *Node) serveFromCache(f *msgFrames, guid ids.ID, cost *netsim.Cost, hops *int) (LocateResult, bool) {
	if cur.cache == nil {
		return LocateResult{}, false
	}
	now := cur.mesh.net.Epoch()
	cur.mu.Lock()
	ent, ok := cur.cache.lookup(guid, now)
	cur.mu.Unlock()
	if !ok {
		return LocateResult{}, false
	}
	if !cur.verifyReplica(f, guid, ent.server, ent.serverAddr, cost) {
		// Stale hint: the replica is gone or withdrew. Drop it; the probe's
		// cost is the price of the shortcut, the fallback is the normal path.
		cur.mu.Lock()
		cur.cache.invalidate(guid, ent.server)
		cur.mu.Unlock()
		return LocateResult{}, false
	}
	*hops++
	return LocateResult{
		Found:      true,
		Server:     ent.server,
		ServerAddr: ent.serverAddr,
		FoundAt:    cur.id,
		Hops:       *hops,
		FromCache:  true,
	}, true
}

// PublishedObjects lists the GUIDs this node serves, in ascending ID order
// (the store is a map; callers iterate the result where order has
// observable effects, e.g. republish sequencing).
func (n *Node) PublishedObjects() []ids.ID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.published) == 0 {
		return nil // most nodes serve nothing; the republish epoch asks every one
	}
	out := make([]ids.ID, 0, len(n.published))
	for g := range n.published {
		out = append(out, g)
	}
	slices.SortFunc(out, ids.ID.Compare)
	return out
}

// PointerCount returns the number of object pointers stored at this node
// (the directory-load measurement for Table 1's balance column).
func (n *Node) PointerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, st := range n.objects {
		c += len(st.recs)
	}
	return c
}

// RootCount returns the number of pointer records for which this node is a
// path terminal (root), a second balance measurement.
func (n *Node) RootCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, st := range n.objects {
		for _, r := range st.recs {
			if r.root {
				c++
			}
		}
	}
	return c
}

// expirePointers drops pointer records — and cached location mappings —
// older than the soft-state TTL.
func (n *Node) expirePointers(now int64) {
	ttl := n.mesh.cfg.PointerTTL
	n.mu.Lock()
	defer n.mu.Unlock()
	for g, st := range n.objects {
		// Scan first: in a refreshed store nothing has expired, and the
		// common epoch must not rewrite every record of every node.
		i := 0
		for i < len(st.recs) && now-st.recs[i].epoch < ttl {
			i++
		}
		if i == len(st.recs) {
			continue
		}
		kept := st.recs[:i]
		for _, r := range st.recs[i+1:] {
			if now-r.epoch < ttl {
				kept = append(kept, r)
			}
		}
		st.recs = kept
		if len(st.recs) == 0 {
			delete(n.objects, g)
		}
	}
	if n.cache != nil {
		n.cache.expire(now)
	}
}

// RepublishAll refreshes the publish paths of every object this node serves
// (the periodic soft-state refresh of Section 6.5). All records travel as
// one batched caravan — one message per distinct next hop per node
// (maintain.go) — so an epoch's refresh traffic scales with the distinct
// routes out of each node rather than objects×hops.
func (n *Node) RepublishAll(cost *netsim.Cost) {
	guids := n.PublishedObjects()
	if len(guids) == 0 {
		return
	}
	n.republishBatched(guids, cost)
}

// OptimizeObjectPtrs re-routes every pointer path segment recorded at this
// node whose next hop has changed (Section 4.2): the records are re-sent up
// the current path; convergence nodes tear down the stale trail backwards.
// Called after routing-table changes (e.g. a closer primary appeared); it is
// a performance aid, not a correctness requirement — "timeouts and regular
// republishes will eventually ensure that the object pointers are on the
// correct nodes".
func (n *Node) OptimizeObjectPtrs(cost *netsim.Cost) {
	n.mu.Lock()
	type workItem struct {
		guid ids.ID
		rec  pointerRec
	}
	var work []workItem
	for _, guid := range sortedGUIDs(n.objects) { // re-route order must not be map order
		for _, r := range n.objects[guid].recs {
			if r.root {
				continue
			}
			work = append(work, workItem{guid, r})
		}
	}
	n.mu.Unlock()
	now := n.mesh.net.Epoch()
	for _, w := range work {
		n.forwardPointerPath(w.guid, w.rec, now, cost, ids.ID{})
	}
}

// forwardPointerPath re-walks the path of one pointer record from this node
// toward its root using current tables (optionally routing as if `exclude`
// did not exist), depositing/refreshing records and triggering backward
// deletion where the new path converges with a stale one.
func (n *Node) forwardPointerPath(guid ids.ID, rec pointerRec, now int64, cost *netsim.Cost, exclude ids.ID) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.fwd.GUID, f.fwd.Key = guid, rec.key
	f.fwd.Server, f.fwd.ServerAddr = rec.server, rec.serverAddr
	prevID, prevAddr := n.id, n.addr
	cur := n
	level := rec.level
	hops := 0
	maxHops := n.table.Levels()*n.table.Base() + 8
	for hops <= maxHops {
		cur.mu.Lock()
		dec := cur.nextHop(rec.key, level, exclude, nil)
		cur.mu.Unlock()
		if dec.terminal {
			cur.mu.Lock()
			if st := cur.objects[guid]; st != nil {
				for i := range st.recs {
					if st.recs[i].samePath(rec.server, rec.key) {
						st.recs[i].root = true
					}
				}
			}
			cur.mu.Unlock()
			return
		}
		f.fwd.Level = dec.nextLevel
		f.fwd.PrevID, f.fwd.PrevAddr = prevID, prevAddr
		next, err := n.mesh.invoke(cur.addr, dec.next, &f.fwd, msgAck, cost, true)
		if err != nil {
			cur.noteDead(dec.next, cost)
			continue
		}
		newRec := pointerRec{
			guid: guid, server: rec.server, serverAddr: rec.serverAddr,
			key: rec.key, lastHop: prevID, lastAddr: prevAddr,
			level: dec.nextLevel, epoch: now,
		}
		old, existed := next.depositPointer(newRec)
		if existed && !old.lastHop.IsZero() && !old.lastHop.Equal(newRec.lastHop) && !old.lastHop.Equal(n.id) {
			// The new path converged onto a node holding a record from a
			// different predecessor: delete the stale trail backwards, but
			// only down to the node that initiated this re-route — the
			// records upstream of it are still on the valid path.
			next.deleteBackward(guid, rec.key, rec.server, old.lastHop, old.lastAddr, n.id, cost)
		}
		// Keep walking to the terminal even across convergence: the path
		// downstream may have changed too (that is what triggered the
		// re-route), so every node up to the new root must see the record.
		prevID, prevAddr = next.id, next.addr
		cur = next
		level = dec.nextLevel
		hops++
	}
}
