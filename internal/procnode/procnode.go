// Package procnode is the daemon side of the multi-process overlay: the
// state and protocol handlers behind cmd/tapestry-node. Each daemon hosts one
// Tapestry node — a static routing table, an object-pointer map and a served
// set — and speaks the wire cluster protocol (internal/wire, types 40+) over
// the framed-TCP stack the core mesh's own TCP transport uses (wire/tcp.go: a
// wire.Server over the daemon's listener, a wire.Client per peer): the
// examples/cluster harness installs each node's table and endpoint book, then
// publish and locate walks forward daemon-to-daemon using ordinary surrogate
// routing, exactly the prefix-by-prefix descent of internal/core but with
// every hop a real socket exchange.
//
// The daemon deliberately reuses the single-process building blocks rather
// than reimplementing them: identifiers and surrogate order from
// internal/ids, the CSR routing table from internal/route (route.New inserts
// the owner into its own slots, so "self resolves the digit" works unchanged),
// the per-hop surrogate decision from that table (route.Table.NextHop) and
// the message catalog from internal/wire. Only the forwarding itself lives
// here, because in-process routing drives walks from the mesh while a daemon
// sees one hop at a time.
package procnode

import (
	"fmt"
	"sync"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// pointer is one deposited object pointer: the GUID's storage server.
type pointer struct {
	server ids.ID
	addr   netsim.Addr
}

// Node is one daemon-hosted overlay node. The zero state answers every walk
// with "not found"; ClusterInstall provisions it. It is the wire.Host a
// wire.Server serves and the wire.Handler of every request that reaches it.
type Node struct {
	mu     sync.Mutex
	self   route.Entry
	table  *route.Table
	peers  map[netsim.Addr]*wire.Client // the address book: a client per peer daemon
	served map[ids.ID]struct{}          // GUIDs stored at this node
	ptrs   map[ids.ID]pointer           // GUID -> pointer toward its server
}

// New returns an empty daemon node awaiting a ClusterInstall.
func New() *Node {
	return &Node{
		peers:  make(map[netsim.Addr]*wire.Client),
		served: make(map[ids.ID]struct{}),
		ptrs:   make(map[ids.ID]pointer),
	}
}

// Lookup accepts a request addressed to this daemon's node or to nobody (no
// digits — all a harness can say before ClusterInstall has named the node),
// and refuses one addressed to an ID the daemon does not host.
func (n *Node) Lookup(_ bool, _ netsim.Addr, id []ids.Digit) wire.Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(id) != 0 && !n.self.ID.EqualDigits(id) {
		return nil
	}
	return n
}

// Handle dispatches one request, filling the reply its sender asked for. Any
// other pairing is not the cluster protocol: the connection is dropped.
func (n *Node) Handle(req, resp wire.Msg, _ *netsim.Cost) error {
	switch m := req.(type) {
	case *wire.ClusterInstall:
		if _, ok := resp.(*wire.ClusterAck); ok {
			n.install(m)
			return nil
		}
	case *wire.ClusterServe:
		if _, ok := resp.(*wire.ClusterAck); ok {
			n.mu.Lock()
			for _, g := range m.GUIDs {
				n.served[g] = struct{}{}
			}
			n.mu.Unlock()
			return nil
		}
	case *wire.ClusterPublish:
		if r, ok := resp.(*wire.ClusterPubDone); ok {
			n.publish(m, r)
			return nil
		}
	case *wire.ClusterLocate:
		if r, ok := resp.(*wire.ClusterFound); ok {
			n.locate(m, r)
			return nil
		}
	}
	return fmt.Errorf("procnode: %T/%T is not a cluster exchange", req, resp)
}

// install provisions identity, routing table and the cluster address book.
func (n *Node) install(m *wire.ClusterInstall) {
	spec := ids.Spec{Base: m.Base, Digits: m.Digits}
	t := route.New(spec, m.Self.ID, m.Self.Addr, m.R)
	for _, r := range m.Rows {
		t.Add(r.Level, r.E)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.self = m.Self
	n.table = t
	for a, c := range n.peers {
		c.Close()
		delete(n.peers, a)
	}
	for _, ep := range m.Endpoints {
		n.peers[ep.Addr] = wire.NewClient(ep.HostPort)
	}
}

// nextHop makes the local surrogate-routing decision for key with `level`
// digits already resolved: the routing table's own native scan, the very
// function internal/core decides every in-process hop with. A daemon that has
// not been provisioned yet is the root of everything. The caller holds n.mu.
func (n *Node) nextHop(key ids.ID, level int) (next route.Entry, nextLevel int, terminal bool) {
	if n.table == nil {
		return route.Entry{}, 0, true
	}
	return n.table.NextHop(key, level, nil)
}

// forward passes a walk's message on to the daemon hosting next and has the
// reply decoded straight into resp, relaying it down the chain.
func (n *Node) forward(next route.Entry, req, resp wire.Msg) error {
	n.mu.Lock()
	c := n.peers[next.Addr]
	n.mu.Unlock()
	if c == nil {
		return fmt.Errorf("procnode: no endpoint for overlay address %d", next.Addr)
	}
	return c.Exchange(next.Addr, next.ID, req, resp, nil)
}

// publish handles one hop of a publish walk: deposit the pointer, then
// either terminate (this node is the root) or forward. A zero Root in the
// reply reports a broken walk.
func (n *Node) publish(m *wire.ClusterPublish, done *wire.ClusterPubDone) {
	n.mu.Lock()
	n.ptrs[m.GUID] = pointer{server: m.Server, addr: m.ServerAddr}
	next, level, terminal := n.nextHop(m.Key, m.Level)
	self := n.self
	n.mu.Unlock()
	if terminal {
		*done = wire.ClusterPubDone{Root: self.ID}
		return
	}
	m.Level = level // the request is this handler's until it returns
	if err := n.forward(next, m, done); err != nil {
		*done = wire.ClusterPubDone{}
	}
}

// locate handles one hop of a locate walk: answer from the served set or the
// pointer map, or forward toward the key's root. Reaching the root without a
// pointer is an authoritative miss.
func (n *Node) locate(m *wire.ClusterLocate, found *wire.ClusterFound) {
	n.mu.Lock()
	_, serves := n.served[m.GUID]
	p, points := n.ptrs[m.GUID]
	next, level, terminal := n.nextHop(m.Key, m.Level)
	self := n.self
	n.mu.Unlock()
	switch {
	case serves:
		*found = wire.ClusterFound{Found: true, Server: self.ID, ServerAddr: self.Addr, Hops: m.Hops}
	case points:
		// One more hop: the jump from the pointer to the server itself.
		*found = wire.ClusterFound{Found: true, Server: p.server, ServerAddr: p.addr, Hops: m.Hops + 1}
	case terminal:
		*found = wire.ClusterFound{Hops: m.Hops}
	default:
		m.Level, m.Hops = level, m.Hops+1
		if err := n.forward(next, m, found); err != nil {
			*found = wire.ClusterFound{}
		}
	}
}
