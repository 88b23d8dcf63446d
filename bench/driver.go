package main

import (
	"fmt"

	"tapestry"
	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
)

// locateResult is what every entry depth reports for one locate.
type locateResult struct {
	found  bool
	server int
	hops   int
	msgs   int
	dist   float64
}

// driver is the set of calls the workloads issue, by member slot and object
// index. The end-to-end runs drive the public facade; the traced run drives
// twins of the same mesh at the overlay and core entry points too, so one
// workload script serves every depth.
type driver interface {
	join(addr int) (msgs int, err error) // the member takes the next slot
	leave(slot int32) (msgs int, err error)
	fail(slot int32)
	publish(slot, obj int32) (msgs int, err error)
	unpublish(slot, obj int32) error
	locate(slot, obj int32) locateResult
	maintain()
	messages() int64
}

func facadeConfig(sp spec, seed int64) tapestry.Config {
	cfg := tapestry.Defaults()
	cfg.Seed = seed
	cfg.StaticBuild = true
	cfg.Transport = sp.transport
	return cfg
}

// facadeDriver drives the public tapestry API.
type facadeDriver struct {
	w     *world
	nw    *tapestry.Network
	nodes []*tapestry.Node
}

// newFacadeDriver creates the network and grows the initial mesh; the facade
// picks the members' addresses, which the caller reads back from addrs.
func newFacadeDriver(w *world, seed int64) (d *facadeDriver, addrs []int, err error) {
	nw, err := tapestry.New(w.space, facadeConfig(w.sp, seed))
	if err != nil {
		return nil, nil, err
	}
	nodes, err := nw.Grow(w.sp.nodes)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range nodes {
		addrs = append(addrs, n.Addr())
	}
	return &facadeDriver{w: w, nw: nw, nodes: nodes}, addrs, nil
}

func (d *facadeDriver) join(addr int) (int, error) {
	n, cost, err := d.nw.AddNode(addr)
	if err != nil {
		return cost.Messages, err
	}
	d.nodes = append(d.nodes, n)
	return cost.Messages, nil
}

// leave and fail drop the departed member's handle, so that a long churn run
// does not keep every corpse's routing table alive.
func (d *facadeDriver) leave(slot int32) (int, error) {
	cost, err := d.nodes[slot].Leave()
	d.nodes[slot] = nil
	return cost.Messages, err
}

func (d *facadeDriver) fail(slot int32) {
	d.nw.Fail(d.nodes[slot])
	d.nodes[slot] = nil
}

func (d *facadeDriver) publish(slot, obj int32) (int, error) {
	cost, err := d.nodes[slot].Publish(d.w.names[obj])
	return cost.Messages, err
}

func (d *facadeDriver) unpublish(slot, obj int32) error {
	_, err := d.nodes[slot].UnpublishChecked(d.w.names[obj])
	return err
}

func (d *facadeDriver) locate(slot, obj int32) locateResult {
	res, cost := d.nodes[slot].Locate(d.w.names[obj])
	return locateResult{found: res.Found, server: res.ServerAddr, hops: res.Hops, msgs: cost.Messages, dist: cost.Distance}
}

func (d *facadeDriver) maintain()       { d.nw.RunMaintenance() }
func (d *facadeDriver) messages() int64 { return d.nw.TotalMessages() }

// overlayDriver is the facade's twin one layer down: the same mesh built
// through the layers' own constructors, driven through overlay.Protocol.
type overlayDriver struct {
	w    *world
	net  *netsim.Network
	p    overlay.Protocol
	mesh *core.Mesh
	hs   []overlay.Handle
}

// newOverlayDriver mirrors tapestry.NewProtocol and Network.Grow at the
// facade mesh's addresses; the traced run fails unless the twins then agree
// message for message, which is what keeps this mapping honest.
func newOverlayDriver(w *world, seed int64, transport core.TransportKind, addrs []int) (*overlayDriver, error) {
	fc := facadeConfig(w.sp, seed)
	cc := core.DefaultConfig()
	cc.Spec = ids.Spec{Base: fc.Base, Digits: fc.Digits}
	cc.R, cc.K = fc.R, fc.K
	cc.RootSetSize = fc.RootSetSize
	cc.PointerTTL = int64(fc.PointerTTL)
	cc.Seed = seed
	cc.Transport = transport
	b, err := overlay.Lookup("tapestry")
	if err != nil {
		return nil, err
	}
	net := netsim.New(w.space)
	p, err := b.New(net, overlay.Config{Spec: cc.Spec, Seed: seed, Static: true, Core: &cc})
	if err != nil {
		return nil, err
	}
	na := make([]netsim.Addr, len(addrs))
	for i, a := range addrs {
		na[i] = netsim.Addr(a)
	}
	hs, _, err := p.Build(na)
	if err != nil {
		return nil, err
	}
	mesh, ok := overlay.CoreMesh(p)
	if !ok {
		return nil, fmt.Errorf("overlay %q has no core mesh", p.Name())
	}
	return &overlayDriver{w: w, net: net, p: p, mesh: mesh, hs: hs}, nil
}

func (d *overlayDriver) join(addr int) (int, error) {
	h, cost, err := d.p.Join(netsim.Addr(addr))
	if err != nil {
		return cost.Messages(), err
	}
	d.hs = append(d.hs, h)
	return cost.Messages(), nil
}

func (d *overlayDriver) leave(slot int32) (int, error) {
	cost, err := d.p.Leave(d.hs[slot])
	d.hs[slot] = nil
	return cost.Messages(), err
}

func (d *overlayDriver) fail(slot int32) {
	_ = d.p.Fail(d.hs[slot]) // tapestry never declines
	d.hs[slot] = nil
}

func (d *overlayDriver) publish(slot, obj int32) (int, error) {
	cost, err := d.p.Publish(d.hs[slot], d.w.names[obj])
	return cost.Messages(), err
}

func (d *overlayDriver) unpublish(slot, obj int32) error {
	_, err := d.p.Unpublish(d.hs[slot], d.w.names[obj])
	return err
}

func (d *overlayDriver) locate(slot, obj int32) locateResult {
	res, cost := d.p.Locate(d.hs[slot], d.w.names[obj])
	m, _, dist := cost.Snapshot()
	return locateResult{found: res.Found, server: int(res.Server), hops: res.Hops, msgs: m, dist: dist}
}

func (d *overlayDriver) maintain()       { _, _ = d.p.Maintain() } // tapestry never declines
func (d *overlayDriver) messages() int64 { return d.net.TotalMessages() }

// coreDriver enters the same twin one layer further down: core.Node calls on
// pre-hashed guids. Membership calls stay at the overlay depth, where member
// identifiers and gateways are drawn.
type coreDriver struct {
	*overlayDriver
	guids []ids.ID
}

func newCoreDriver(o *overlayDriver) *coreDriver {
	d := &coreDriver{overlayDriver: o}
	for _, name := range o.w.names {
		d.guids = append(d.guids, o.mesh.Spec().Hash(name))
	}
	return d
}

func (d *coreDriver) node(slot int32) *core.Node {
	n, _ := overlay.CoreNode(d.hs[slot])
	return n
}

func (d *coreDriver) publish(slot, obj int32) (int, error) {
	var cost netsim.Cost
	err := d.node(slot).Publish(d.guids[obj], &cost)
	return cost.Messages(), err
}

func (d *coreDriver) unpublish(slot, obj int32) error {
	var cost netsim.Cost
	d.node(slot).Unpublish(d.guids[obj], &cost)
	return nil
}

func (d *coreDriver) locate(slot, obj int32) locateResult {
	var cost netsim.Cost
	res := d.node(slot).Locate(d.guids[obj], &cost)
	m, _, dist := cost.Snapshot()
	return locateResult{found: res.Found, server: int(res.ServerAddr), hops: res.Hops, msgs: m, dist: dist}
}
