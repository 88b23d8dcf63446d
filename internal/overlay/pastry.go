package overlay

import (
	"errors"
	"math/rand"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/pastry"
)

// pastryCaps is empty: the Pastry baseline builds its proximity tables
// statically from global knowledge (the standard simulation methodology for
// its hop/stretch numbers) and has no dynamic membership or maintenance to
// offer — it declines everything beyond the universal operations.
const pastryCaps = Caps(0)

// pastryProto adapts pastry.Mesh.
type pastryProto struct {
	members
	net  *netsim.Network
	mesh *pastry.Mesh
	spec ids.Spec
	rng  *rand.Rand
}

type pastryHandle struct{ n *pastry.Node }

func (h pastryHandle) Addr() netsim.Addr { return h.n.Addr() }
func (h pastryHandle) Label() string     { return h.n.ID().String() }

// pastryLeafSet is the leaf-set size |L| every Pastry row is run with.
const pastryLeafSet = 8

func newPastry(net *netsim.Network, cfg Config) (Protocol, error) {
	spec := cfg.spec()
	mesh, err := pastry.NewMesh(net, spec, pastryLeafSet)
	if err != nil {
		return nil, err
	}
	return &pastryProto{
		net:  net,
		mesh: mesh,
		spec: spec,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

func (p *pastryProto) Name() string         { return "pastry" }
func (p *pastryProto) Caps() Caps           { return pastryCaps }
func (p *pastryProto) Net() *netsim.Network { return p.net }

func (p *pastryProto) Build(addrs []netsim.Addr) ([]Handle, []int, error) {
	p.opMu.Lock()
	defer p.opMu.Unlock()
	if err := p.members.checkEmptyBuild(); err != nil {
		return nil, nil, err
	}
	if err := p.mesh.Build(pastry.RandomParts(p.spec, addrs, p.rng)); err != nil {
		return nil, nil, err
	}
	at := make(map[netsim.Addr]*pastry.Node, len(addrs))
	for _, n := range p.mesh.Nodes() {
		at[n.Addr()] = n
	}
	handles := make([]Handle, len(addrs))
	for i, a := range addrs {
		handles[i] = pastryHandle{at[a]}
		p.members.add(handles[i])
	}
	return handles, make([]int, len(addrs)), nil
}

func (p *pastryProto) Join(addr netsim.Addr) (Handle, netsim.Cost, error) {
	return nil, netsim.Cost{}, unsupported("pastry", "Join")
}

func (p *pastryProto) Leave(h Handle) (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("pastry", "Leave")
}

func (p *pastryProto) Fail(h Handle) error { return unsupported("pastry", "Fail") }

func (p *pastryProto) key(name string) ids.ID { return p.spec.Hash(name) }

func (p *pastryProto) Publish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	ph, ok := h.(pastryHandle)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	return cost, ph.n.Publish(p.key(key), &cost)
}

func (p *pastryProto) Unpublish(h Handle, key string) (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("pastry", "Unpublish")
}

func (p *pastryProto) Locate(h Handle, key string) (Result, netsim.Cost) {
	var cost netsim.Cost
	ph, ok := h.(pastryHandle)
	if !ok {
		return Result{}, cost
	}
	res := ph.n.Locate(p.key(key), &cost)
	if !res.Found {
		return Result{}, cost
	}
	return Result{Found: true, Server: res.Server,
		ServerID: p.members.labelAt(res.Server), Hops: res.Hops}, cost
}

func (p *pastryProto) Maintain() (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("pastry", "Maintain")
}

func (p *pastryProto) TableSize(h Handle) int {
	ph, ok := h.(pastryHandle)
	if !ok {
		return 0
	}
	return ph.n.TableSize()
}

func (p *pastryProto) Stats() Stats {
	live := p.members.snapshot()
	s := Stats{Nodes: len(live), TotalMessages: p.net.TotalMessages()}
	entries := 0
	for _, h := range live {
		entries += h.(pastryHandle).n.TableSize()
	}
	if len(live) > 0 {
		s.MeanTableEntries = float64(entries) / float64(len(live))
	}
	return s
}
