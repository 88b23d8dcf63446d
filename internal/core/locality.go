package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// Section 6.3 locality enhancement: on transit-stub topologies, latency
// differences between intra-stub and inter-stub paths are an order of
// magnitude or more, so "an object locate request never leaves the
// originating stub if there is a copy of the object somewhere inside the
// stub". Publication spawns a local-branch publish restricted to the stub,
// rooted at a stub-local surrogate; queries try the stub-restricted route
// first and resume wide-area routing only on a local miss.
//
// The stub oracle is the metric's region labelling (metric.Regions; the
// transit-stub generator populates it for both the matrix and the on-demand
// representation); in deployments the paper suggests approximating it with a
// latency threshold.

// regionOf returns the locality region of an address, or -1 when the metric
// has no region structure (transit routers also report -1: they belong to
// the wide area). The labelling is cached on the Mesh at construction.
func (m *Mesh) regionOf(a netsim.Addr) int {
	if len(m.regions) > 0 {
		return m.regions[a]
	}
	return -1
}

// nextHopLocal makes the surrogate-routing decision restricted to neighbors
// inside the given region ("treats the local network as its entire domain").
// The caller holds n.mu.
func (n *Node) nextHopLocal(key ids.ID, level, region int) hopDecision {
	digits := n.table.Levels()
	base := n.table.Base()
	for l := level; l < digits; l++ {
		var chosen []route.Entry
		want := int(key.Digit(l))
		for i := 0; i < base; i++ {
			var local []route.Entry
			for _, e := range n.table.SetView(l, ids.Digit((want+i)%base)) {
				if n.mesh.regionOf(e.Addr) == region {
					local = append(local, e)
				}
			}
			if len(local) > 0 {
				chosen = local
				break
			}
		}
		if len(chosen) == 0 {
			return hopDecision{terminal: true}
		}
		if chosen[0].ID.Equal(n.id) {
			continue
		}
		return hopDecision{next: chosen[0], nextLevel: l + 1}
	}
	return hopDecision{terminal: true}
}

// localWalk routes from n toward key using only stub-internal links,
// applying visit at each node (including endpoints); it returns the local
// root. All hops are intra-stub by construction.
func (n *Node) localWalk(key ids.ID, region int, cost *netsim.Cost, visit func(cur *Node, level int) bool) *Node {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.local.Key, f.local.Region = key, region
	cur := n
	level := 0
	hops := 0
	maxHops := n.table.Levels()*n.table.Base() + 8
	for hops <= maxHops {
		if visit != nil && visit(cur, level) {
			return cur
		}
		cur.mu.Lock()
		dec := cur.nextHopLocal(key, level, region)
		cur.mu.Unlock()
		if dec.terminal {
			return cur
		}
		f.local.Level = dec.nextLevel
		next, err := n.mesh.invoke(cur.addr, dec.next, &f.local, msgAck, cost, true)
		if err != nil {
			cur.noteDead(dec.next, cost)
			continue
		}
		cur = next
		level = dec.nextLevel
		hops++
	}
	return cur
}

// PublishLocal publishes the object both wide-area (the ordinary publish)
// and along a stub-restricted branch rooted inside the server's stub, so
// stub-mates can find it without wide-area traffic. On metrics without
// region structure it degrades to a plain Publish.
func (n *Node) PublishLocal(guid ids.ID, cost *netsim.Cost) error {
	if err := n.Publish(guid, cost); err != nil {
		return err
	}
	region := n.mesh.regionOf(n.addr)
	if region < 0 {
		return nil
	}
	now := n.mesh.net.Epoch()
	for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
		key := n.mesh.cfg.Spec.Salt(guid, i)
		prevID, prevAddr := ids.ID{}, n.addr
		n.localWalk(key, region, cost, func(cur *Node, level int) bool {
			cur.depositPointer(pointerRec{
				guid: guid, server: n.id, serverAddr: n.addr,
				key: key, lastHop: prevID, lastAddr: prevAddr,
				level: level, epoch: now,
			})
			prevID, prevAddr = cur.id, cur.addr
			return false
		})
	}
	return nil
}

// LocateLocal performs the two-phase query of Section 6.3: first a
// stub-restricted search (which cannot leave the client's stub), then, on a
// miss, the ordinary wide-area locate. The second return value reports
// whether the query was satisfied without leaving the stub.
func (n *Node) LocateLocal(guid ids.ID, cost *netsim.Cost) (LocateResult, bool) {
	region := n.mesh.regionOf(n.addr)
	if region >= 0 {
		key := n.mesh.cfg.Spec.Salt(guid, 0)
		var found LocateResult
		hops := 0
		f := n.mesh.getFrames() // every hop's replica verification; the walk's steps use localWalk's own
		n.localWalk(key, region, cost, func(cur *Node, level int) bool {
			res, ok := cur.serveQueryLocal(f, guid, region, cost, &hops)
			if ok {
				found = res
				return true
			}
			hops++
			return false
		})
		n.mesh.putFrames(f)
		if found.Found {
			return found, true
		}
	}
	return n.Locate(guid, cost), false
}

// serveQueryLocal answers from pointers whose replica lives in the same
// stub; remote replicas are ignored so the local phase never leaves. Like
// serveQuery, selection is a single pass under the lock and a replica that
// turns out dead or no longer publishing is purged on the spot (previously
// stale local pointers were silently skipped and re-probed by every later
// query until TTL expiry).
func (cur *Node) serveQueryLocal(f *msgFrames, guid ids.ID, region int, cost *netsim.Cost, hops *int) (LocateResult, bool) {
	var buf [16]pointerRec
	for {
		// Snapshot the stub-local records under the lock (the region check is
		// a slice index); measure distances and verify outside it, exactly as
		// serveQuery does.
		recs := buf[:0]
		cur.mu.Lock()
		if st := cur.objects[guid]; st != nil {
			for i := range st.recs {
				if cur.mesh.regionOf(st.recs[i].serverAddr) == region {
					recs = append(recs, st.recs[i])
				}
			}
		}
		cur.mu.Unlock()
		if len(recs) == 0 {
			return LocateResult{}, false
		}
		best := 0
		bestD := cur.mesh.net.Distance(cur.addr, recs[0].serverAddr)
		for i := 1; i < len(recs); i++ {
			if d := cur.mesh.net.Distance(cur.addr, recs[i].serverAddr); d < bestD {
				best, bestD = i, d
			}
		}
		rec := recs[best]
		if !cur.verifyReplica(f, guid, rec.server, rec.serverAddr, cost) {
			cur.purgePointer(guid, rec.server, rec.key)
			continue
		}
		*hops++
		return LocateResult{Found: true, Server: rec.server, ServerAddr: rec.serverAddr,
			FoundAt: cur.id, Hops: *hops}, true
	}
}
