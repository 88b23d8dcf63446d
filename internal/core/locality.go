package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
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

// wideArea is the region of a walk that is not confined to a stub.
const wideArea = -1

// PublishLocal publishes the object both wide-area (the ordinary publish)
// and along a stub-restricted branch rooted inside the server's stub, so
// stub-mates can find it without wide-area traffic: the same deposit walk,
// confined to the stub ("treats the local network as its entire domain"). On
// metrics without region structure it degrades to a plain Publish.
func (n *Node) PublishLocal(guid ids.ID, cost *netsim.Cost) error {
	f := n.mesh.beginOp()
	err := n.publish(f, guid, &f.cost)
	if region := n.mesh.regionOf(n.addr); err == nil && region >= 0 {
		for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
			_ = n.publishPath(f, guid, n.mesh.cfg.Spec.Salt(guid, i), region, &f.cost)
		}
	}
	n.mesh.endOp(f, cost)
	return err
}

// LocateLocal performs the two-phase query of Section 6.3: first a
// stub-restricted search (the ordinary peek walk, confined: it takes no hop
// and serves no replica outside the client's stub), then, on a miss, the
// ordinary wide-area locate. The second return value reports whether the
// query was satisfied without leaving the stub.
func (n *Node) LocateLocal(guid ids.ID, cost *netsim.Cost) (LocateResult, bool) {
	f := n.mesh.beginOp()
	var res LocateResult
	if region := n.mesh.regionOf(n.addr); region >= 0 {
		res = n.locatePath(f, guid, 0, region, &f.cost)
	}
	local := res.Found
	if !local {
		res = n.locate(f, guid, &f.cost)
	}
	n.mesh.endOp(f, cost)
	return res, local
}
