package overlay

import (
	"errors"
	"fmt"
	"math/rand"

	"tapestry/internal/chord"
	"tapestry/internal/netsim"
)

const chordCaps = CapJoin | CapLeave | CapFail | CapMaintain

// chordProto adapts chord.Ring. Keys hash onto the 64-bit ring with the
// instance seed, so identically-seeded instances agree on object placement.
// Chord has no soft-state republish: references stored at crashed owners are
// lost until their publishers re-publish — Maintain only re-forms the ring
// (successor lists, predecessors, fingers) among survivors.
type chordProto struct {
	members
	net  *netsim.Network
	ring *chord.Ring
	rng  *rand.Rand
	seed int64
}

type chordHandle struct{ n *chord.Node }

func (h chordHandle) Addr() netsim.Addr { return h.n.Self().Addr }
func (h chordHandle) Label() string     { return fmt.Sprintf("%016x", h.n.Self().ID) }

func newChord(net *netsim.Network, cfg Config) (Protocol, error) {
	return &chordProto{
		net:  net,
		ring: chord.NewRing(net, cfg.Seed),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		seed: cfg.Seed,
	}, nil
}

func (c *chordProto) Name() string         { return "chord" }
func (c *chordProto) Caps() Caps           { return chordCaps }
func (c *chordProto) Net() *netsim.Network { return c.net }

func (c *chordProto) Build(addrs []netsim.Addr) ([]Handle, []int, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if err := c.members.checkEmptyBuild(); err != nil {
		return nil, nil, err
	}
	nodes, costs, err := c.ring.Grow(addrs, c.rng)
	if err != nil {
		return nil, nil, err
	}
	c.ring.Stabilize(nil)
	handles := make([]Handle, len(nodes))
	for i, n := range nodes {
		handles[i] = chordHandle{n}
		c.members.add(handles[i])
	}
	return handles, costs, nil
}

func (c *chordProto) Join(addr netsim.Addr) (Handle, netsim.Cost, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	var cost netsim.Cost
	live := c.members.snapshot()
	if len(live) == 0 {
		n, err := c.ring.Bootstrap(chord.RandomID(c.rng), addr)
		if err != nil {
			return nil, cost, err
		}
		h := chordHandle{n}
		c.members.add(h)
		return h, cost, nil
	}
	gateway := live[c.rng.Intn(len(live))].(chordHandle).n
	n, spent, err := c.ring.Join(gateway, chord.RandomID(c.rng), addr)
	if err != nil {
		return nil, *spent, err
	}
	h := chordHandle{n}
	c.members.add(h)
	return h, *spent, nil
}

func (c *chordProto) Leave(h Handle) (netsim.Cost, error) {
	var cost netsim.Cost
	ch, ok := h.(chordHandle)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	if err := ch.n.Leave(&cost); err != nil {
		return cost, err
	}
	c.members.remove(h)
	return cost, nil
}

func (c *chordProto) Fail(h Handle) error {
	ch, ok := h.(chordHandle)
	if !ok {
		return errors.New("overlay: foreign handle")
	}
	c.ring.Fail(ch.n)
	c.members.remove(h)
	return nil
}

func (c *chordProto) key(name string) uint64 { return chord.HashKey(name, c.seed) }

func (c *chordProto) Publish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	ch, ok := h.(chordHandle)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	return cost, ch.n.Publish(c.key(key), &cost)
}

func (c *chordProto) Unpublish(h Handle, key string) (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("chord", "Unpublish")
}

func (c *chordProto) Locate(h Handle, key string) (Result, netsim.Cost) {
	var cost netsim.Cost
	ch, ok := h.(chordHandle)
	if !ok {
		return Result{}, cost
	}
	res := ch.n.Locate(c.key(key), &cost)
	if !res.Found {
		return Result{}, cost
	}
	return Result{Found: true, Server: res.Server,
		ServerID: c.members.labelAt(res.Server), Hops: res.Hops}, cost
}

// Maintain re-forms the ring among survivors (the fixed point of Chord's
// iterative stabilization) and refreshes fingers.
func (c *chordProto) Maintain() (netsim.Cost, error) {
	var cost netsim.Cost
	c.ring.Repair(&cost)
	return cost, nil
}

func (c *chordProto) TableSize(h Handle) int {
	ch, ok := h.(chordHandle)
	if !ok {
		return 0
	}
	return ch.n.FingerCount()
}

func (c *chordProto) Stats() Stats {
	live := c.members.snapshot()
	s := Stats{Nodes: len(live), TotalMessages: c.net.TotalMessages()}
	entries := 0
	for _, h := range live {
		entries += h.(chordHandle).n.FingerCount()
	}
	if len(live) > 0 {
		s.MeanTableEntries = float64(entries) / float64(len(live))
	}
	return s
}
