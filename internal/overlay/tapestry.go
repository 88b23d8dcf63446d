package overlay

import (
	"errors"
	"math/rand"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

const tapestryCaps = CapJoin | CapLeave | CapFail | CapUnpublish |
	CapMaintain | CapLocality | CapCache | CapReplication

// tapestry adapts core.Mesh — the paper's own protocol — to the unified
// interface.
type tapestry struct {
	members
	net  *netsim.Network
	mesh *core.Mesh // its Config() is the effective configuration, defaults applied
	rng  *rand.Rand // member IDs and gateway choice
	stat bool       // Build uses the oracle static construction
}

// tapHandle wraps one core node.
type tapHandle struct{ n *core.Node }

func (h tapHandle) Addr() netsim.Addr { return h.n.Addr() }
func (h tapHandle) Label() string     { return h.n.Label() }

// CoreMesh exposes the Tapestry adapter's underlying mesh so the facade can
// offer the Tapestry-only extended surface (multicast, locality queries,
// consistency audits). It reports false for every other protocol.
func CoreMesh(p Protocol) (*core.Mesh, bool) {
	t, ok := p.(*tapestry)
	if !ok {
		return nil, false
	}
	return t.mesh, true
}

// CoreNode exposes the core node behind a Tapestry handle.
func CoreNode(h Handle) (*core.Node, bool) {
	t, ok := h.(tapHandle)
	if !ok {
		return nil, false
	}
	return t.n, true
}

func newTapestry(net *netsim.Network, cfg Config) (Protocol, error) {
	cc := core.DefaultConfig()
	if cfg.Core != nil {
		cc = *cfg.Core
	} else {
		cc.Spec = cfg.spec()
		cc.Seed = cfg.Seed
	}
	mesh, err := core.NewMesh(net, cc)
	if err != nil {
		return nil, err
	}
	return &tapestry{
		net:  net,
		mesh: mesh,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		stat: cfg.Static,
	}, nil
}

func (t *tapestry) Name() string         { return "tapestry" }
func (t *tapestry) Caps() Caps           { return tapestryCaps }
func (t *tapestry) Net() *netsim.Network { return t.net }

func (t *tapestry) Build(addrs []netsim.Addr) ([]Handle, []int, error) {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	if err := t.members.checkEmptyBuild(); err != nil {
		return nil, nil, err
	}
	if t.stat {
		cfg := t.mesh.Config()
		parts := core.StaticParticipants(cfg.Spec, addrs, t.rng)
		m, err := core.BuildStatic(t.net, cfg, parts)
		if err != nil {
			return nil, nil, err
		}
		// The statically built mesh replaces the empty one New created;
		// release that one's transport (under TCP, a listener of its own).
		old := t.mesh
		t.mesh = m
		if err := old.Close(); err != nil {
			return nil, nil, err
		}
		handles := make([]Handle, len(addrs))
		for i, a := range addrs {
			handles[i] = tapHandle{m.NodeAt(a)}
			t.members.add(handles[i])
		}
		return handles, make([]int, len(addrs)), nil
	}
	nodes, costs, err := t.mesh.GrowSequential(addrs, t.rng)
	if err != nil {
		return nil, nil, err
	}
	handles := make([]Handle, len(nodes))
	for i, n := range nodes {
		handles[i] = tapHandle{n}
		t.members.add(handles[i])
	}
	return handles, costs, nil
}

func (t *tapestry) Join(addr netsim.Addr) (Handle, netsim.Cost, error) {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	var cost netsim.Cost
	id := t.mesh.Spec().Random(t.rng)
	for t.mesh.NodeByID(id) != nil {
		id = t.mesh.Spec().Random(t.rng)
	}
	var n *core.Node
	var err error
	if nodes := t.mesh.Nodes(); len(nodes) == 0 {
		n, err = t.mesh.Bootstrap(id, addr)
	} else {
		gateway := nodes[t.rng.Intn(len(nodes))]
		var spent *netsim.Cost
		n, spent, err = t.mesh.Join(gateway, id, addr)
		cost = *spent
	}
	if err != nil {
		return nil, cost, err
	}
	h := tapHandle{n}
	t.members.add(h)
	return h, cost, nil
}

func (t *tapestry) Leave(h Handle) (netsim.Cost, error) {
	// Serialized with Join/Build: an unserialized departure can kill the
	// surrogate an in-flight join is multicasting through, failing the join.
	t.opMu.Lock()
	defer t.opMu.Unlock()
	var cost netsim.Cost
	n, ok := CoreNode(h)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	if err := n.Leave(&cost); err != nil {
		return cost, err
	}
	t.members.remove(h)
	return cost, nil
}

func (t *tapestry) Fail(h Handle) error {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	n, ok := CoreNode(h)
	if !ok {
		return errors.New("overlay: foreign handle")
	}
	t.mesh.Fail(n)
	t.members.remove(h)
	return nil
}

func (t *tapestry) guid(key string) ids.ID { return t.mesh.Spec().Hash(key) }

func (t *tapestry) Publish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	n, ok := CoreNode(h)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	if t.mesh.Config().Replicas > 1 {
		_, err := n.PublishReplicated(t.guid(key), &cost)
		return cost, err
	}
	return cost, n.Publish(t.guid(key), &cost)
}

func (t *tapestry) Unpublish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	n, ok := CoreNode(h)
	if !ok {
		return cost, errors.New("overlay: foreign handle")
	}
	n.Unpublish(t.guid(key), &cost)
	return cost, nil
}

func (t *tapestry) Locate(h Handle, key string) (Result, netsim.Cost) {
	var cost netsim.Cost
	n, ok := CoreNode(h)
	if !ok {
		return Result{}, cost
	}
	res := n.Locate(t.guid(key), &cost)
	if !res.Found {
		return Result{}, cost
	}
	return Result{Found: true, Server: res.ServerAddr, ServerID: t.label(res),
		Hops: res.Hops, FromCache: res.FromCache}, cost
}

// label names the replica a locate reached. The server vouched for the object
// a moment ago, so it is nearly always still the node at its address, whose
// label is already rendered; one that left since is rendered here.
func (t *tapestry) label(res core.LocateResult) string {
	if s := t.mesh.NodeAt(res.ServerAddr); s != nil && s.ID().Equal(res.Server) {
		return s.Label()
	}
	return res.Server.String()
}

// Maintain runs the heartbeat sweep (dead-link repair) followed by one
// soft-state epoch (pointer expiry + republish) — the stabilization pass
// the churn experiments run between epochs. Both halves are batched: the
// sweep probes each distinct neighbor once mesh-wide, and the republish
// groups records per next hop (core/maintain.go).
func (t *tapestry) Maintain() (netsim.Cost, error) {
	var cost netsim.Cost
	t.mesh.SweepDeadAll(&cost)
	t.mesh.RunMaintenanceEpoch(&cost)
	return cost, nil
}

func (t *tapestry) TableSize(h Handle) int {
	n, ok := CoreNode(h)
	if !ok {
		return 0
	}
	return n.NeighborCount()
}

func (t *tapestry) Stats() Stats {
	nodes := t.mesh.Nodes()
	s := Stats{Nodes: len(nodes), TotalMessages: t.net.TotalMessages()}
	links := 0
	for _, n := range nodes {
		links += n.NeighborCount()
		s.TotalPointers += n.PointerCount()
		s.CachedMappings += n.CacheSize()
	}
	if len(nodes) > 0 {
		s.MeanTableEntries = float64(links) / float64(len(nodes))
	}
	s.CacheHits, s.CacheMisses = t.mesh.LocateCacheStats()
	cfg := t.mesh.Config()
	s.Roots, s.Replicas = cfg.RootSetSize, cfg.Replicas
	return s
}
