package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// This file is the availability tier above the single-server publish of
// objects.go: k-replica placement (PublishReplicated) hands copies of an
// object to the closest live peers found by the §4.2 nearest-neighbor
// engine, and read-repair (readRepair, called from Locate) refills salted
// root paths that a multi-root query observed to have decayed. Both ride the
// PublishReq wire message; its peer-side effect lives in handlePublishReq,
// dispatched like every other RPC so all transport backends agree on it.

// PublishReplicated publishes guid from n and additionally places the object
// on the Config.Replicas-1 closest live peers, each of which records itself
// as a replica server and announces along every salted root. Candidates come
// from the §4.2 nearest-neighbor engine run to the empty prefix (i.e. the
// plain "closest nodes" search); on transit-stub topologies the selection is
// locality-aware — the closest node of each distinct stub region is
// preferred before filling by raw distance, so one stub outage cannot take
// every copy. A dead candidate is skipped for the next closest, mirroring
// routing's retry-through-secondaries.
//
// It returns the number of replicas placed, counting n itself; fewer than
// Config.Replicas means the candidate pool ran dry (tiny or heavily churned
// meshes). With Replicas <= 1 it is exactly Publish.
func (n *Node) PublishReplicated(guid ids.ID, cost *netsim.Cost) (int, error) {
	f := n.mesh.beginOp()
	placed, err := n.publishReplicated(f, guid, &f.cost)
	n.mesh.endOp(f, cost)
	return placed, err
}

// publishReplicated is PublishReplicated in the operation's bundle f, charged
// to cost.
func (n *Node) publishReplicated(f *msgFrames, guid ids.ID, cost *netsim.Cost) (int, error) {
	if err := n.publish(f, guid, cost); err != nil {
		return 0, err
	}
	placed := 1
	want := n.mesh.cfg.Replicas - 1
	if want <= 0 {
		return placed, nil
	}
	for _, e := range n.replicaCandidates(cost) {
		if placed > want {
			break
		}
		f.pub.GUID, f.pub.Adopt = guid, true
		f.pub.Salts = f.pub.Salts[:0]
		if _, err := n.mesh.invoke(n.addr, e, &f.pub, msgAck, cost, false); err != nil {
			continue // stale candidate; the next closest takes its slot
		}
		placed++
	}
	return placed, nil
}

// replicaCandidates returns placement candidates for extra replicas, sorted
// closest-first from n's vantage and then region-diversified: the closest
// node of each stub region not yet hosting a copy moves ahead of closer
// nodes in already-covered regions. n's own region counts as covered (n is
// the first replica). Metrics without region structure keep the pure
// distance order.
func (n *Node) replicaCandidates(cost *netsim.Cost) []route.Entry {
	s := n.newNNSearch(n.mesh.kList(), ids.ID{}, cost)
	n.mu.Lock()
	s.seeds = appendSeedBand(s.seeds[:0], n.table, 0)
	n.mu.Unlock()
	for _, e := range s.seeds {
		s.add(e)
	}
	s.expandLevel(ids.EmptyPrefix, 0, nnLevelRounds)
	res := s.matchers(ids.EmptyPrefix, 0)
	out := make([]route.Entry, len(res))
	copy(out, res)
	s.release()
	if len(n.mesh.regions) == 0 {
		return out
	}
	covered := map[int]bool{n.mesh.regionOf(n.addr): true}
	ordered := make([]route.Entry, 0, len(out))
	var rest []route.Entry
	for _, e := range out {
		if r := n.mesh.regionOf(e.Addr); r >= 0 && !covered[r] {
			covered[r] = true
			ordered = append(ordered, e)
		} else {
			rest = append(rest, e)
		}
	}
	return append(ordered, rest...)
}

// readRepair re-arms the salted roots a successful multi-root locate found
// decayed: the replica that satisfied the query is asked to republish toward
// exactly the missed roots, so the next query drawing one of them hits
// without waiting for the server's maintenance epoch. Best effort — a stale
// server (possible when the answer came from a cached mapping) drops the
// repair, and the surviving roots keep answering in the meantime. The request
// is a frame of f, the locate's bundle, whose walks are over.
func (n *Node) readRepair(f *msgFrames, guid ids.ID, res LocateResult, missed []int, cost *netsim.Cost) {
	f.pub.GUID, f.pub.Adopt = guid, false
	f.pub.Salts = append(f.pub.Salts[:0], missed...)
	_, _ = n.mesh.invoke(n.addr, entryAt(res.Server, res.ServerAddr), &f.pub, msgAck, cost, false)
}

// handlePublishReq is the peer-side effect of a PublishReq (dispatched from
// transport.go). Adopt records the receiver as a replica server first — the
// k-replica placement handoff — after which both variants republish: along
// every salted root when Salts is empty, or along exactly the listed roots
// (read-repair). A receiver that does not serve the object ignores the
// request rather than resurrecting pointers to a copy it does not hold.
func (n *Node) handlePublishReq(q *wire.PublishReq, cost *netsim.Cost) {
	if q.GUID.IsZero() {
		return // names no object (and is no table key); only a malformed request carries it
	}
	n.mu.Lock()
	if q.Adopt {
		n.published.Put(q.GUID, struct{}{})
	}
	_, serves := n.published.Get(q.GUID)
	n.mu.Unlock()
	if !serves {
		return
	}
	// A bundle of the handler's own: q is a frame of the requester's.
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	if len(q.Salts) == 0 {
		_ = n.republishObject(f, q.GUID, cost)
		return
	}
	spec := n.mesh.cfg.Spec
	for _, s := range q.Salts {
		if s < 0 || s >= n.mesh.cfg.RootSetSize {
			continue
		}
		_ = n.publishPath(f, q.GUID, spec.Salt(q.GUID, s), wideArea, cost)
	}
}
