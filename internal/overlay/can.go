package overlay

import (
	"errors"
	"fmt"
	"math/rand"

	"tapestry/internal/can"
	"tapestry/internal/netsim"
)

// canCaps: CAN joins dynamically (zone split + handover) but the simplified
// one-zone-per-node model cannot express the zone-merge/takeover dance a
// graceful leave needs, and failures leave unroutable dead zones — both are
// honest Caps-declared refusals rather than panics or silent availability
// holes. No maintenance pass exists either (references at a zone owner are
// hard state).
const canCaps = CapJoin

// canProto adapts can.Mesh. Keys map to torus points via can's own
// SHA-256-based hashing (seed-independent).
type canProto struct {
	members
	net  *netsim.Network
	mesh *can.Mesh
	rng  *rand.Rand
}

type canHandle struct{ n *can.Node }

func (h canHandle) Addr() netsim.Addr { return h.n.Addr() }
func (h canHandle) Label() string     { return fmt.Sprintf("zone@%d", h.n.Addr()) }

// canDims is the torus dimensionality r every CAN row is run with.
const canDims = 2

func newCAN(net *netsim.Network, cfg Config) (Protocol, error) {
	mesh, err := can.NewMesh(net, canDims)
	if err != nil {
		return nil, err
	}
	return &canProto{
		net:  net,
		mesh: mesh,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

func (c *canProto) Name() string         { return "can" }
func (c *canProto) Caps() Caps           { return canCaps }
func (c *canProto) Net() *netsim.Network { return c.net }

func (c *canProto) Build(addrs []netsim.Addr) ([]Handle, []int, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if err := c.members.checkEmptyBuild(); err != nil {
		return nil, nil, err
	}
	nodes, costs, err := c.mesh.Grow(addrs, c.rng)
	if err != nil {
		return nil, nil, err
	}
	handles := make([]Handle, len(nodes))
	for i, n := range nodes {
		handles[i] = canHandle{n}
		c.members.add(handles[i])
	}
	return handles, costs, nil
}

func (c *canProto) Join(addr netsim.Addr) (Handle, netsim.Cost, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	var cost netsim.Cost
	live := c.members.snapshot()
	if len(live) == 0 {
		n, err := c.mesh.Bootstrap(addr)
		if err != nil {
			return nil, cost, err
		}
		h := canHandle{n}
		c.members.add(h)
		return h, cost, nil
	}
	gateway := live[c.rng.Intn(len(live))].(canHandle).n
	n, spent, err := c.mesh.Join(gateway, addr, c.rng)
	if err != nil {
		return nil, *spent, err
	}
	h := canHandle{n}
	c.members.add(h)
	return h, *spent, nil
}

func (c *canProto) Leave(h Handle) (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("can", "Leave")
}

func (c *canProto) Fail(h Handle) error { return unsupported("can", "Fail") }

func (c *canProto) Publish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	ch, ok := h.(canHandle)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	return cost, ch.n.Publish(key, &cost)
}

func (c *canProto) Unpublish(h Handle, key string) (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("can", "Unpublish")
}

func (c *canProto) Locate(h Handle, key string) (Result, netsim.Cost) {
	var cost netsim.Cost
	ch, ok := h.(canHandle)
	if !ok {
		return Result{}, cost
	}
	res := ch.n.Locate(key, &cost)
	if !res.Found {
		return Result{}, cost
	}
	return Result{Found: true, Server: res.Server,
		ServerID: c.members.labelAt(res.Server), Hops: res.Hops}, cost
}

func (c *canProto) Maintain() (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("can", "Maintain")
}

func (c *canProto) TableSize(h Handle) int {
	ch, ok := h.(canHandle)
	if !ok {
		return 0
	}
	return ch.n.NeighborCount()
}

func (c *canProto) Stats() Stats {
	live := c.members.snapshot()
	s := Stats{Nodes: len(live), TotalMessages: c.net.TotalMessages()}
	entries := 0
	for _, h := range live {
		entries += h.(canHandle).n.NeighborCount()
	}
	if len(live) > 0 {
		s.MeanTableEntries = float64(entries) / float64(len(live))
	}
	return s
}
