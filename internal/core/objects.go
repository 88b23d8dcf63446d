package core

import (
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
	epoch      int64 // deposit/refresh time for expiry
	// level and root share a word: a state with its inline record and its
	// free-list link is 128 bytes, where the 24-byte state and the 112-byte
	// block of its one-record array were 136.
	level uint8 // digits resolved when the publish arrived here (at most ids.MaxDigits)
	root  bool  // the publish path terminated at this node
}

// samePath reports whether the record lies on the (server, key) publish
// path — the dedupe identity of a pointer record.
func (r *pointerRec) samePath(server, key ids.ID) bool {
	return r.server.Equal(server) && r.key.Equal(key)
}

// The pointer store. Node.objects — an ids.Table, whose probe is a multiply
// and word compares — takes a GUID to the node's pointer set for it, an
// objState; Section 2.2 puts a pointer at every hop of every publish path and
// Section 6.5 withdraws, expires and re-lays them forever, so every publish,
// unpublish, locate and republish comes through here at every hop. Three
// rules keep that churn off the heap and out of the table:
//
//  1. One probe per arrival. find and findOrMake are the store's only
//     probes; an operation probes once per hold of the node's lock and works
//     on the *objState it got for the rest of that hold.
//  2. Nothing outlives the lock. An *objState, or a window of its records, is
//     never kept past the release of Node.mu — the state may be recycled for
//     another GUID the moment the lock drops. What is needed later is copied
//     out by value.
//  3. release is the only exit. Every way a record leaves — unpublish, purge,
//     expiry, Figure 9 teardown — ends in drop or expirePointers, which hand
//     an emptied state to release: the one place a state leaves the table,
//     and where it joins the node's free list for the next publish to reuse.

// objState is a node's pointer set for one GUID. The first record lives in
// the state itself — recs opens as a window of one — so the usual single
// replica costs one object, and none once the free list is warm; further
// replicas grow recs onto the heap like any slice.
type objState struct {
	recs []pointerRec
	one  [1]pointerRec
	next *objState // the free list's link; nil while the state is in the store
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

// flagRoot marks the record on the (server, key) path as the path's terminal.
func (o *objState) flagRoot(server, key ids.ID) {
	for i := range o.recs {
		if o.recs[i].samePath(server, key) {
			o.recs[i].root = true
		}
	}
}

// find returns n's pointer set for guid, nil when it holds none. The store
// is keyed by the *unsalted* GUID so queries (which know only the GUID) find
// pointers deposited along any salted path. The caller holds n.mu.
func (n *Node) find(guid ids.ID) *objState {
	st, _ := n.objects.Get(guid)
	return st
}

// findOrMake is find for a deposit: a GUID new to n gets an empty state, off
// the free list when it has one. The caller holds n.mu.
func (n *Node) findOrMake(guid ids.ID) *objState {
	st := n.find(guid)
	if st == nil {
		if st = n.free; st != nil {
			n.free, st.next = st.next, nil
		} else {
			st = new(objState)
		}
		st.recs = st.one[:0]
		n.objects.Put(guid, st)
	}
	return st
}

// release takes guid's emptied state out of the store and puts it, zeroed —
// a free state pins no identifier and no grown record array — on n's free
// list. The caller holds n.mu.
func (n *Node) release(guid ids.ID, st *objState) {
	n.objects.Delete(guid)
	window := st.recs[:cap(st.recs)]
	*st = objState{next: n.free}
	n.free = st
	if n.mesh.afterRelease != nil {
		n.mesh.afterRelease(st, window)
	}
}

// drop removes the (server, key) record from st — n's state for guid, nil
// when it has none — releasing a state that empties, and the cached hint
// naming the same server: a hint must not outlive the pointer whose replica
// withdrew or failed. The caller holds n.mu.
func (n *Node) drop(st *objState, guid, server, key ids.ID) {
	if st != nil && st.remove(server, key) && len(st.recs) == 0 {
		n.release(guid, st)
	}
	if n.cache != nil {
		n.cache.invalidate(guid, server)
	}
}

// depositOnPath stores/refreshes a pointer at n, one node of a path being
// laid from origin, and detects convergence (Section 4.2, Figure 9): the node
// already held a record on this (server, key) path that arrived from
// elsewhere, so everything from there back is a stale trail — which it
// returns — to be deleted backwards as far as origin, whose own record (and
// everything upstream of it) is still valid. It returns the state the record
// went into, for whatever else the caller does under this hold of n.mu.
func (n *Node) depositOnPath(r pointerRec, origin ids.ID) (st *objState, stale route.Entry, converged bool) {
	st = n.findOrMake(r.guid)
	old, existed := st.upsert(r)
	if existed && !old.lastHop.IsZero() && !old.lastHop.Equal(r.lastHop) && !old.lastHop.Equal(origin) {
		return st, entryAt(old.lastHop, old.lastAddr), true
	}
	return st, route.Entry{}, false
}

// purgePointer removes a stale (server, key) record observed dead or
// no-longer-serving by a query, so subsequent queries stop re-trying it
// until the soft-state refresh re-deposits a live one.
func (n *Node) purgePointer(guid, server, key ids.ID) {
	n.mu.Lock()
	n.drop(n.find(guid), guid, server, key)
	n.mu.Unlock()
}

// Publish announces that n stores a replica of the object (Section 2.2,
// Figure 2): for each of the |R_ψ| salted roots, a publish message routes
// from n toward the root, depositing an object pointer at every hop.
func (n *Node) Publish(guid ids.ID, cost *netsim.Cost) error {
	f := n.mesh.beginOp()
	err := n.publish(f, guid, &f.cost)
	n.mesh.endOp(f, cost)
	return err
}

// publish is Publish inside an operation that already holds the bundle f,
// charged to cost.
func (n *Node) publish(f *msgFrames, guid ids.ID, cost *netsim.Cost) error {
	n.mu.Lock()
	n.published.Put(guid, struct{}{})
	n.mu.Unlock()
	return n.republishObject(f, guid, cost)
}

// republishObject re-walks all publish paths for one object this node
// serves, one after the other in the bundle f; used by Publish and by the
// peer side of replica placement and read-repair.
func (n *Node) republishObject(f *msgFrames, guid ids.ID, cost *netsim.Cost) error {
	spec := n.mesh.cfg.Spec
	var firstErr error
	for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
		key := spec.Salt(guid, i)
		if err := n.publishPath(f, guid, key, wideArea, cost); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// publishPath walks one salted path from n to the key's root, depositing a
// pointer at every node on it and flagging the last as the path's root.
// Convergence with a stale path triggers backward deletion of the outdated
// trail (Figure 9's DeletePointersBackward), keyed off a changed lastHop at
// an already-present record. A region >= 0 lays the Section 6.3 local branch
// instead: the same walk confined to the server's stub. The walk runs in f,
// the caller's bundle.
func (n *Node) publishPath(f *msgFrames, guid, key ids.ID, region int, cost *netsim.Cost) error {
	f.route.Key, f.route.Op = key, wire.RouteOpPublish
	w := f.newWalk(stepDeposit, &f.route, key, cost)
	f.confine(n.mesh, region)
	w.guid, w.server, w.serverAddr = guid, n.id, n.addr
	w.prevAddr = n.addr
	w.epoch = n.mesh.net.Epoch()
	_, err := n.runWalk(f)
	return err
}

// deleteBackward removes the (guid, key, server)-pointer from the stale
// trail starting at hop and walking lastHop links backwards, stopping when
// the trail runs out or reaches stopAt — the node at which the path diverged,
// whose own record (and everything upstream of it) is still valid (Figure 9's
// DeletePointersBackward with its changedNode argument). n sends the first
// DeleteBack; each node that drops its record passes the message on.
func (n *Node) deleteBackward(guid, key, server ids.ID, hop route.Entry, stopAt ids.ID, cost *netsim.Cost) {
	f := n.mesh.getFrames()
	f.del.GUID, f.del.Key, f.del.Server, f.del.StopAt = guid, key, server, stopAt
	n.sendDeleteBack(&f.del, hop, cost)
	n.mesh.putFrames(f)
}

// sendDeleteBack sends q one-way from n to the next node of the trail, unless
// the trail has run out or reached its stop.
func (n *Node) sendDeleteBack(q *wire.DeleteBack, hop route.Entry, cost *netsim.Cost) {
	if hop.ID.IsZero() || hop.ID.Equal(q.StopAt) || hop.ID.Equal(q.Server) {
		return
	}
	_, _ = n.mesh.oneWayMsg(n.addr, hop, q, cost) // a dead trail node ends the sweep; TTL expiry cleans up behind it
}

// handleDeleteBack is one trail node's share of the backward deletion: drop
// the (server, key) record and pass q on to the record's lastHop.
func (n *Node) handleDeleteBack(q *wire.DeleteBack, cost *netsim.Cost) {
	var next route.Entry
	dropped := false
	n.mu.Lock()
	st := n.find(q.GUID)
	if st != nil {
		for i := range st.recs {
			if r := &st.recs[i]; r.samePath(q.Server, q.Key) {
				next = entryAt(r.lastHop, r.lastAddr)
				// A node that is currently the terminal for this key — or
				// whose record is root-flagged — must never lose the record
				// to a backward sweep: under concurrent membership changes, a
				// walk that followed a stale view could otherwise delete the
				// very record queries depend on (the paper's rule that "the
				// old root not delete pointers until the new root has
				// acknowledged" is this guard in soft-state form). Stale
				// residue that survives here is cleaned up by TTL expiry.
				dropped = !r.root && !n.nextHop(q.Key, int(r.level), nil).terminal
			}
		}
	}
	if dropped {
		n.drop(st, q.GUID, q.Server, q.Key)
	}
	n.mu.Unlock()
	if dropped {
		n.sendDeleteBack(q, next, cost)
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
	f := n.mesh.beginOp()
	n.unpublish(f, guid, &f.cost)
	n.mesh.endOp(f, cost)
}

// unpublish is Unpublish inside an operation that already holds the bundle f
// (Leave withdraws every replica it serves in its own), charged to cost.
func (n *Node) unpublish(f *msgFrames, guid ids.ID, cost *netsim.Cost) {
	n.mu.Lock()
	n.published.Delete(guid)
	n.mu.Unlock()
	spec := n.mesh.cfg.Spec
	for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
		key := spec.Salt(guid, i)
		f.route.Key, f.route.Op = key, wire.RouteOpUnpublish
		w := f.newWalk(stepRemove, &f.route, key, cost)
		w.guid, w.server = guid, n.id
		_, _ = n.runWalk(f)
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
// pseudo-randomly and the rest are tried in turn on failure (Observation 1).
// The choice is drawn from a per-node SplitMix64 stream (seeded from
// Config.Seed and the node ID) advanced by an atomic counter, so concurrent
// queries never serialize on a shared RNG lock and serial runs replay exactly.
//
// A multi-root locate that succeeds after one or more roots returned a clean
// miss (the pointer chain toward that root decayed, e.g. its root crashed
// since the last republish) triggers read-repair: the serving replica is
// asked to republish toward exactly the missed roots, so the next query that
// draws them hits again.
func (n *Node) Locate(guid ids.ID, cost *netsim.Cost) LocateResult {
	f := n.mesh.beginOp()
	res := n.locate(f, guid, &f.cost)
	n.mesh.endOp(f, cost)
	return res
}

// locate is Locate inside an operation that already holds the bundle f,
// charged to cost: every root's walk, and the read-repair request after them,
// take their turn in the one bundle.
func (n *Node) locate(f *msgFrames, guid ids.ID, cost *netsim.Cost) LocateResult {
	k := n.mesh.cfg.RootSetSize
	start := 0
	if k > 1 {
		start = int(stats.SplitMix64(n.rootSalt+n.locateSeq.Add(1)) % uint64(k))
	}
	var out LocateResult
	var missedBuf [8]int
	missed := missedBuf[:0]
	for t := 0; t < k; t++ {
		salt := (start + t) % k
		res := n.locatePath(f, guid, salt, wideArea, cost)
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
		n.readRepair(f, guid, out, missed, cost)
	}
	if n.cache != nil {
		if out.Found && out.FromCache {
			n.cacheHits.Add(1)
		} else {
			n.cacheMisses.Add(1)
		}
	}
	return out
}

// LocateVia runs a single-root query with an explicit salt; exposed for
// experiments that need deterministic root choice.
func (n *Node) LocateVia(guid ids.ID, salt int, cost *netsim.Cost) LocateResult {
	f := n.mesh.beginOp()
	res := n.locatePath(f, guid, salt, wideArea, &f.cost)
	n.mesh.endOp(f, cost)
	return res
}

// locatePath runs one query: a peek walk toward the salted key that stops at
// the first node holding a pointer (or, with the serving layer on, a cached
// hint) the replica itself vouches for. It reports the replica reached, a
// clean miss at the root, or Exhausted when the walk did not end (the mesh is
// inconsistent). A region >= 0 runs the Section 6.3 local phase instead: the
// same walk confined to the client's stub. The walk runs in f, the caller's
// bundle.
//
// With the serving layer on, a successful answer is recorded at every
// upstream hop of the query path — piggybacked on the response, charging no
// messages. The last path element (the node that answered) is skipped: its
// own pointer store or cache already answers.
func (n *Node) locatePath(f *msgFrames, guid ids.ID, salt, region int, cost *netsim.Cost) LocateResult {
	key := n.mesh.cfg.Spec.Salt(guid, salt)
	f.locate.GUID, f.locate.Key, f.locate.Salt = guid, key, salt
	w := f.newWalk(stepPeek, &f.locate, key, cost)
	f.confine(n.mesh, region)
	w.guid = guid
	if _, err := n.runWalk(f); err != nil {
		return LocateResult{Exhausted: true}
	}
	if w.res.Found && len(w.path) > 1 {
		now := n.mesh.net.Epoch()
		for _, p := range w.path[:len(w.path)-1] {
			p.cacheDeposit(guid, w.res.Server, w.res.ServerAddr, now)
		}
	}
	return w.res
}

// idIn reports whether id occurs in list. The per-walk memories (loop
// detection, observed corpses) are small slices with linear scans: paths are
// a few hops (Theorem 2: <= Levels plus small surrogate overhead), so this
// beats a map, and the backing arrays are recycled with the walk.
func idIn(list []ids.ID, id ids.ID) bool {
	for i := range list {
		if list[i].Equal(id) {
			return true
		}
	}
	return false
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

// serveQuery is a peek walk's continuation at a node holding pointer records
// for the object: the query proceeds to the closest live replica known here.
// The usual store holds one record, which is read straight out of it — no
// snapshot, and no distance evaluated with nothing to compare it to; several
// records, or a stub-confined walk, go through closestReplica. A replica that
// turns out dead — or live but no longer publishing — is purged from the
// store on the spot, so subsequent queries stop burning a probe on it until
// the soft-state refresh re-deposits a live pointer. It reports whether the
// walk is answered (in w.res).
func (w *walk) serveQuery(cur *Node, f *msgFrames) bool {
	for {
		var rec pointerRec
		cur.mu.Lock()
		st := cur.find(w.guid)
		switch {
		case st == nil:
			cur.mu.Unlock()
			return false
		case len(st.recs) == 1 && w.regions == nil:
			rec = st.recs[0]
			cur.mu.Unlock()
		default:
			var ok bool
			if rec, ok = w.closestReplica(cur, st); !ok {
				return false
			}
		}
		if !cur.verifyReplica(f, w.guid, rec.server, rec.serverAddr, w.cost) {
			// Stale pointer (dead host, reused address, or a replica that
			// withdrew): drop it and re-select from what remains.
			cur.purgePointer(w.guid, rec.server, rec.key)
			continue
		}
		w.res = LocateResult{
			Found:      true,
			Server:     rec.server,
			ServerAddr: rec.serverAddr,
			FoundAt:    cur.id,
			Hops:       w.hops + 1, // the final hop to the server
		}
		return true
	}
}

// closestReplica picks, among the records of st — cur's state for the walk's
// object — the one whose replica is closest to cur: "If multiple pointers are
// encountered, the query proceeds to the closest replica to the current
// node." It is entered with cur.mu held and releases it: the lock covers only
// a snapshot of the records (into a stack buffer — no heap traffic at
// realistic replica counts; a stub-confined walk snapshots only replicas
// inside its stub, so the local phase never leaves it), and distance
// evaluation runs outside it, since on lazy graph metrics a cold Distance is
// a Dijkstra and must not stall every operation contending for this node. It
// is a function of its own, never inlined, so that only a query which gets
// here pays for zeroing the 1.5 KB buffer.
//
//go:noinline
func (w *walk) closestReplica(cur *Node, st *objState) (pointerRec, bool) {
	var buf [16]pointerRec
	recs := buf[:0]
	if w.regions == nil {
		recs = append(recs, st.recs...)
	} else {
		for i := range st.recs {
			if w.regions[st.recs[i].serverAddr] == w.region {
				recs = append(recs, st.recs[i])
			}
		}
	}
	cur.mu.Unlock()
	if len(recs) == 0 {
		return pointerRec{}, false
	}
	best := 0
	bestD := cur.mesh.net.Distance(cur.addr, recs[0].serverAddr)
	for i := 1; i < len(recs); i++ {
		if d := cur.mesh.net.Distance(cur.addr, recs[i].serverAddr); d < bestD {
			best, bestD = i, d
		}
	}
	return recs[best], true
}

// serveHint is a peek walk's continuation at a node whose cache names a
// replica (w.aside). The hint is verified with the replica itself before
// being served — a cache entry can short-cut the route but never vouch for
// liveness — and a failed verification drops the entry and reports a miss so
// the query resumes ordinary routing: the probe's cost is the price of the
// shortcut, the fallback is the normal path.
func (w *walk) serveHint(cur *Node, f *msgFrames) bool {
	if !cur.verifyReplica(f, w.guid, w.aside.ID, w.aside.Addr, w.cost) {
		cur.cacheInvalidate(w.guid, w.aside.ID)
		return false
	}
	w.res = LocateResult{
		Found:      true,
		Server:     w.aside.ID,
		ServerAddr: w.aside.Addr,
		FoundAt:    cur.id,
		Hops:       w.hops + 1,
		FromCache:  true,
	}
	return true
}

// PublishedObjects lists the GUIDs this node serves, in ascending ID order
// (the set is a hash table; callers iterate the result where order has
// observable effects, e.g. republish sequencing).
func (n *Node) PublishedObjects() []ids.ID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.published.Len() == 0 {
		return nil // most nodes serve nothing; the republish epoch asks every one
	}
	return sortedGUIDs(make([]ids.ID, 0, n.published.Len()), &n.published)
}

// PointerCount returns the number of object pointers stored at this node
// (the directory-load measurement for Table 1's balance column).
func (n *Node) PointerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for i := 0; i < n.objects.Slots(); i++ {
		if _, st, ok := n.objects.At(i); ok {
			c += len(st.recs)
		}
	}
	return c
}

// RootCount returns the number of pointer records for which this node is a
// path terminal (root), a second balance measurement.
func (n *Node) RootCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for i := 0; i < n.objects.Slots(); i++ {
		_, st, ok := n.objects.At(i)
		if !ok {
			continue
		}
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
	for slot := 0; slot < n.objects.Slots(); slot++ {
		g, st, ok := n.objects.At(slot)
		if !ok {
			continue
		}
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
			n.release(g, st)
			slot-- // the release closed the gap: this slot holds another state now, or none
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
//
// The served GUIDs are sorted into the caravan's recycled scratch, not into
// a slice of the epoch's own: every server of the mesh runs this every epoch.
func (n *Node) RepublishAll(cost *netsim.Cost) {
	n.mu.Lock()
	if n.published.Len() == 0 {
		n.mu.Unlock()
		return // most nodes serve nothing; the republish epoch asks every one
	}
	f := n.mesh.getFrames()
	f.batch.guids = sortedGUIDs(f.batch.guids[:0], &n.published)
	n.mu.Unlock()
	n.republishBatched(f, cost)
	n.mesh.putFrames(f)
}

// OptimizeObjectPtrs re-routes every pointer path segment recorded at this
// node whose next hop has changed (Section 4.2): the records are re-sent up
// the current path; convergence nodes tear down the stale trail backwards.
// Called after routing-table changes (e.g. a closer primary appeared); it is
// a performance aid, not a correctness requirement — "timeouts and regular
// republishes will eventually ensure that the object pointers are on the
// correct nodes".
func (n *Node) OptimizeObjectPtrs(cost *netsim.Cost) {
	n.reroutePointers(cost, ids.ID{}, false, true, func(r *pointerRec) bool { return !r.root })
}

// reroutePointers re-routes (forwardPointerPath) every pointer record at n
// that pick selects, each from its own arrival level or — with restart — from
// level 0, the true-root computation: the root may have diverged from this
// node's path at any level, not just the record's. pick runs under n.mu and
// may edit the stored record. Records go in (GUID, stored) order, never slot
// order: the order decides repair traffic at every peer.
func (n *Node) reroutePointers(cost *netsim.Cost, exclude ids.ID, restart, bounce bool, pick func(r *pointerRec) bool) {
	n.mu.Lock()
	var work []pointerRec
	for _, g := range sortedGUIDs(make([]ids.ID, 0, n.objects.Len()), &n.objects) {
		recs := n.find(g).recs
		for i := range recs {
			if pick(&recs[i]) {
				work = append(work, recs[i])
			}
		}
	}
	n.mu.Unlock()
	now := n.mesh.net.Epoch()
	for _, rec := range work {
		if restart {
			rec.level = 0
		}
		n.forwardPointerPath(rec, now, cost, exclude, bounce)
	}
}

// forwardPointerPath re-walks the path of one pointer record from this node
// toward its root using current tables (optionally routing as if `exclude`
// did not exist), depositing/refreshing records and triggering backward
// deletion where the new path converges with a stale one — but only down to
// this node, the one that initiated the re-route: the records upstream of it
// are still on the valid path. The walk keeps going to the terminal even
// across convergence: the path downstream may have changed too (that is what
// triggered the re-route), so every node up to the new root must see the
// record. With bounce off the walk ends AT an inserting node instead of
// bouncing off it (root transfer: the inserter is where the record belongs).
func (n *Node) forwardPointerPath(rec pointerRec, now int64, cost *netsim.Cost, exclude ids.ID, bounce bool) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.fwd.GUID, f.fwd.Key = rec.guid, rec.key
	f.fwd.Server, f.fwd.ServerAddr = rec.server, rec.serverAddr
	w := f.newWalk(stepDeposit, &f.fwd, rec.key, cost)
	w.level, w.resume = int(rec.level), true
	w.exclude, w.noBounce = exclude, !bounce
	w.guid, w.server, w.serverAddr = rec.guid, rec.server, rec.serverAddr
	w.prevID, w.prevAddr = n.id, n.addr
	w.epoch = now
	_, _ = n.runWalk(f)
}
