// Package procnode is the daemon side of the multi-process overlay: the
// state and protocol handlers behind cmd/tapestry-node. Each daemon hosts one
// Tapestry node — a static routing table, an object-pointer map and a served
// set — and speaks the wire cluster protocol (internal/wire, types 40+) over
// TCP: the examples/cluster harness installs each node's table and endpoint
// book, then publish and locate walks forward daemon-to-daemon using ordinary
// surrogate routing, exactly the prefix-by-prefix descent of internal/core
// but with every hop a real socket exchange.
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
	"net"
	"sync"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// dialTimeout and exchangeTimeout bound a forwarded hop; a locate that spans
// d hops holds d nested exchanges, so the budget is generous.
const (
	dialTimeout     = 5 * time.Second
	exchangeTimeout = 60 * time.Second
)

// pointer is one deposited object pointer: the GUID's storage server.
type pointer struct {
	server ids.ID
	addr   netsim.Addr
}

// Node is one daemon-hosted overlay node. The zero state answers every walk
// with "not found"; ClusterInstall provisions it.
type Node struct {
	mu     sync.Mutex
	self   route.Entry
	table  *route.Table
	eps    map[netsim.Addr]string // overlay address -> daemon host:port
	served map[ids.ID]struct{}    // GUIDs stored at this node
	ptrs   map[ids.ID]pointer     // GUID -> pointer toward its server
}

// New returns an empty daemon node awaiting a ClusterInstall.
func New() *Node {
	return &Node{
		eps:    make(map[netsim.Addr]string),
		served: make(map[ids.ID]struct{}),
		ptrs:   make(map[ids.ID]pointer),
	}
}

// Serve accepts connections until the listener closes. Each connection
// carries a sequence of framed request/response pairs; connections are
// independent, so the harness and forwarding peers may overlap freely.
func (n *Node) Serve(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go n.serveConn(c)
	}
}

func (n *Node) serveConn(c net.Conn) {
	defer c.Close()
	var rbuf, wbuf []byte
	for {
		frame, err := wire.ReadFrame(c, rbuf)
		rbuf = frame
		if err != nil {
			return
		}
		req, _, err := wire.DecodeFrame(frame)
		if err != nil {
			return
		}
		resp := n.handle(req)
		if resp == nil {
			return // not a cluster request: drop the connection
		}
		if wbuf, err = wire.WriteMsg(c, wbuf, resp); err != nil {
			return
		}
	}
}

// handle dispatches one request and returns its reply (nil = protocol error).
func (n *Node) handle(req wire.Msg) wire.Msg {
	switch m := req.(type) {
	case *wire.ClusterInstall:
		n.install(m)
		return &wire.ClusterAck{}
	case *wire.ClusterServe:
		n.mu.Lock()
		for _, g := range m.GUIDs {
			n.served[g] = struct{}{}
		}
		n.mu.Unlock()
		return &wire.ClusterAck{}
	case *wire.ClusterPublish:
		return n.publish(m)
	case *wire.ClusterLocate:
		return n.locate(m)
	default:
		return nil
	}
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
	clear(n.eps)
	for _, ep := range m.Endpoints {
		n.eps[ep.Addr] = ep.HostPort
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

// publish handles one hop of a publish walk: deposit the pointer, then
// either terminate (this node is the root) or forward and relay the
// confirmation back down the chain. A zero Root in the reply reports a
// broken walk.
func (n *Node) publish(m *wire.ClusterPublish) wire.Msg {
	n.mu.Lock()
	n.ptrs[m.GUID] = pointer{server: m.Server, addr: m.ServerAddr}
	next, level, terminal := n.nextHop(m.Key, m.Level)
	self := n.self
	n.mu.Unlock()
	if terminal {
		return &wire.ClusterPubDone{Root: self.ID}
	}
	fwd := *m
	fwd.Level = level
	resp, err := n.exchange(next.Addr, &fwd, wire.TClusterPubDone)
	if err != nil {
		return &wire.ClusterPubDone{}
	}
	return resp
}

// locate handles one hop of a locate walk: answer from the served set or the
// pointer map, or forward toward the key's root. Reaching the root without a
// pointer is an authoritative miss.
func (n *Node) locate(m *wire.ClusterLocate) wire.Msg {
	n.mu.Lock()
	if _, ok := n.served[m.GUID]; ok {
		self := n.self
		n.mu.Unlock()
		return &wire.ClusterFound{Found: true, Server: self.ID, ServerAddr: self.Addr, Hops: m.Hops}
	}
	if p, ok := n.ptrs[m.GUID]; ok {
		n.mu.Unlock()
		// One more hop: the jump from the pointer to the server itself.
		return &wire.ClusterFound{Found: true, Server: p.server, ServerAddr: p.addr, Hops: m.Hops + 1}
	}
	next, level, terminal := n.nextHop(m.Key, m.Level)
	n.mu.Unlock()
	if terminal {
		return &wire.ClusterFound{Hops: m.Hops}
	}
	fwd := *m
	fwd.Level, fwd.Hops = level, m.Hops+1
	resp, err := n.exchange(next.Addr, &fwd, wire.TClusterFound)
	if err != nil {
		return &wire.ClusterFound{}
	}
	return resp
}

// exchange performs one request/response round trip with the daemon hosting
// the given overlay address. Connections are per-exchange: walks are short
// and the kernel's loopback handshake is cheap, so a conn pool would buy
// little for an example-scale cluster.
func (n *Node) exchange(to netsim.Addr, req wire.Msg, want wire.Type) (wire.Msg, error) {
	n.mu.Lock()
	hp, ok := n.eps[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("procnode: no endpoint for overlay address %d", to)
	}
	c, err := net.DialTimeout("tcp", hp, dialTimeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(exchangeTimeout))
	if _, err := wire.WriteMsg(c, nil, req); err != nil {
		return nil, err
	}
	frame, err := wire.ReadFrame(c, nil)
	if err != nil {
		return nil, err
	}
	resp, _, err := wire.DecodeFrame(frame)
	if err != nil {
		return nil, err
	}
	if resp.WireType() != want {
		return nil, fmt.Errorf("procnode: reply type %v, want %v", resp.WireType(), want)
	}
	return resp, nil
}
