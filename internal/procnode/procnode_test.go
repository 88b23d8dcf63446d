package procnode

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

var testSpec = ids.Spec{Base: 16, Digits: 6}

// staticMesh builds the in-process oracle: an n-node core mesh from global
// knowledge, the same construction examples/cluster cuts daemon tables from.
func staticMesh(t *testing.T, n int, seed int64) (*core.Mesh, []*core.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	cfg := core.DefaultConfig()
	cfg.Spec = testSpec
	cfg.Transport = core.TransportDirect
	m, err := core.BuildStatic(netsim.New(space), cfg, core.StaticParticipants(testSpec, addrs, rng))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*core.Node, n)
	for i, a := range addrs {
		nodes[i] = m.NodeAt(a)
	}
	return m, nodes
}

// installFor flattens an oracle node's identity and routing table into the
// message that provisions its daemon twin.
func installFor(m *core.Mesh, n *core.Node, eps []wire.Endpoint) *wire.ClusterInstall {
	inst := &wire.ClusterInstall{
		Base:      m.Spec().Base,
		Digits:    m.Spec().Digits,
		R:         m.Config().R,
		Self:      route.Entry{ID: n.ID(), Addr: n.Addr()},
		Endpoints: eps,
	}
	n.Table().ForEachNeighbor(func(l int, e route.Entry) {
		inst.Rows = append(inst.Rows, wire.LeveledEntry{Level: l, E: e})
	})
	return inst
}

// daemon boots one daemon on a loopback socket and returns its address.
func daemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := wire.Server{Host: New()}
	go srv.Serve(ln)
	return ln.Addr().String()
}

// cluster boots one daemon per oracle node and provisions it, returning the
// harness's client of each.
func cluster(t *testing.T, m *core.Mesh, nodes []*core.Node) []*wire.Client {
	t.Helper()
	clients := make([]*wire.Client, len(nodes))
	eps := make([]wire.Endpoint, len(nodes))
	for i, n := range nodes {
		eps[i] = wire.Endpoint{Addr: n.Addr(), HostPort: daemon(t)}
		clients[i] = wire.NewClient(eps[i].HostPort)
		t.Cleanup(clients[i].Close)
	}
	for i, n := range nodes {
		// Unaddressed: the daemon has no identity until this lands.
		if err := clients[i].Exchange(n.Addr(), ids.ID{}, installFor(m, n, eps), &wire.ClusterAck{}, nil); err != nil {
			t.Fatalf("daemon %d refused its install: %v", i, err)
		}
	}
	return clients
}

// TestClusterMatchesInProcessMesh boots three daemons on loopback sockets,
// provisions them from a static core mesh, and requires every publish to end
// at the oracle's root and every locate, from every daemon, to name the
// server and hop count the in-process mesh answers with.
func TestClusterMatchesInProcessMesh(t *testing.T) {
	m, nodes := staticMesh(t, 3, 7)
	clients := cluster(t, m, nodes)
	exchange := func(i int, req, resp wire.Msg) {
		t.Helper()
		if err := clients[i].Exchange(nodes[i].Addr(), nodes[i].ID(), req, resp, nil); err != nil {
			t.Fatalf("daemon %d: %T: %v", i, req, err)
		}
	}

	// One object per daemon, published on both sides.
	guids := make([]ids.ID, len(nodes))
	for s, n := range nodes {
		g := testSpec.Hash(fmt.Sprintf("object-%d", s))
		guids[s] = g
		exchange(s, &wire.ClusterServe{GUIDs: []ids.ID{g}}, &wire.ClusterAck{})
		var done wire.ClusterPubDone
		exchange(s, &wire.ClusterPublish{GUID: g, Key: g, Server: n.ID(), ServerAddr: n.Addr()}, &done)
		root, _, err := n.SurrogateFor(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !done.Root.Equal(root.ID()) {
			t.Errorf("object %d: daemon walk rooted at %v, the mesh's at %v", s, done.Root, root.ID())
		}
		if err := n.Publish(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	for s, g := range guids {
		for c, client := range nodes {
			var got wire.ClusterFound
			exchange(c, &wire.ClusterLocate{GUID: g, Key: g}, &got)
			want := client.Locate(g, nil)
			// A walk that reaches the storing daemon itself is answered from
			// its served set; the mesh counts the replica verification as a
			// hop even when the pointer it follows is the server's own.
			hops := want.Hops
			if want.FoundAt.Equal(want.Server) {
				hops--
			}
			if !got.Found || !want.Found || !got.Server.Equal(want.Server) || got.ServerAddr != want.ServerAddr || got.Hops != hops {
				t.Errorf("object %d from daemon %d: got %+v, the mesh answers %+v (%d hops expected)", s, c, got, want, hops)
			}
		}
	}
}

// TestNextHopMatchesCore pins the shared scan's wiring: a daemon provisioned
// with a core node's table makes, for random keys and levels, exactly the
// decision core.Node.NextHopDecision makes on the original.
func TestNextHopMatchesCore(t *testing.T) {
	m, nodes := staticMesh(t, 64, 11)
	twins := make([]*Node, len(nodes))
	for i, n := range nodes {
		twins[i] = New()
		twins[i].install(installFor(m, n, nil))
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		at := rng.Intn(len(nodes))
		key, level := testSpec.Random(rng), rng.Intn(testSpec.Digits+1)
		next, nextLevel, terminal := twins[at].nextHop(key, level)
		wantNext, wantLevel, wantTerminal := nodes[at].NextHopDecision(key, level)
		if terminal != wantTerminal || nextLevel != wantLevel || !next.ID.Equal(wantNext.ID) || next.Addr != wantNext.Addr {
			t.Fatalf("node %v, key %v, level %d: daemon decides (%v, %d, %v), core (%v, %d, %v)",
				nodes[at].ID(), key, level, next.ID, nextLevel, terminal, wantNext.ID, wantLevel, wantTerminal)
		}
	}
	// An unprovisioned daemon is the root of everything.
	if _, _, terminal := New().nextHop(testSpec.Random(rng), 0); !terminal {
		t.Error("a daemon without a table forwarded a walk")
	}
}

// TestDaemonRefusesAnotherID: a request addressed to an identifier the daemon
// does not host is a status-1 reply — wire.ErrPeerGone, the cause core's
// callers find inside their *PeerError — on a connection that stays usable,
// and a pair that is not the cluster protocol drops the connection.
func TestDaemonRefusesAnotherID(t *testing.T) {
	m, nodes := staticMesh(t, 3, 7)
	clients := cluster(t, m, nodes)
	g := testSpec.Hash("refused")
	var found wire.ClusterFound
	err := clients[0].Exchange(nodes[0].Addr(), nodes[1].ID(), &wire.ClusterLocate{GUID: g, Key: g}, &found, nil)
	if !errors.Is(err, wire.ErrPeerGone) {
		t.Fatalf("a locate addressed to another daemon's ID: err = %v, want wire.ErrPeerGone", err)
	}
	if err := clients[0].Exchange(nodes[0].Addr(), nodes[0].ID(), &wire.ClusterLocate{GUID: g, Key: g}, &found, nil); err != nil || found.Found {
		t.Fatalf("after a refusal: err = %v, found = %+v, want a clean miss", err, found)
	}
	if err := clients[0].Exchange(nodes[0].Addr(), nodes[0].ID(), &wire.ClusterLocate{GUID: g, Key: g}, &wire.ClusterAck{}, nil); err == nil || errors.Is(err, wire.ErrPeerGone) {
		t.Fatalf("a locate asking for an Ack: err = %v, want a dropped connection", err)
	}
}

// TestDaemonExchangeTimeout is core's TestTCPExchangeTimeout against a
// daemon's own client: a peer that accepts and never answers costs a
// forwarding daemon one bounded wait per walk — reported as a broken walk —
// and the connection it hung on is closed, not pooled.
func TestDaemonExchangeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan []net.Conn)
	go func() {
		var held []net.Conn
		for {
			c, err := ln.Accept()
			if err != nil {
				accepted <- held
				return
			}
			held = append(held, c)
		}
	}()
	m, nodes := staticMesh(t, 3, 7)
	eps := make([]wire.Endpoint, len(nodes))
	for i, n := range nodes {
		eps[i] = wire.Endpoint{Addr: n.Addr(), HostPort: ln.Addr().String()} // every peer is the hung one
	}
	d := New()
	d.install(installFor(m, nodes[0], eps))
	for _, c := range d.peers {
		c.Timeout = 40 * time.Millisecond
	}
	// A key another node roots, so the walk must forward.
	var key ids.ID
	for i := 0; ; i++ {
		key = testSpec.Hash(fmt.Sprintf("elsewhere-%d", i))
		if _, _, terminal := d.nextHop(key, 0); !terminal {
			break
		}
	}
	const walks = 3
	for i := 0; i < walks; i++ {
		start := time.Now()
		done := wire.ClusterPubDone{Root: nodes[0].ID()}
		d.publish(&wire.ClusterPublish{GUID: key, Key: key, Server: nodes[0].ID(), ServerAddr: nodes[0].Addr()}, &done)
		if !done.Root.IsZero() {
			t.Fatalf("walk %d through a hung peer reports root %v, want a broken walk", i, done.Root)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("walk %d took %v against a 40ms bound", i, el)
		}
	}
	ln.Close()
	held := <-accepted
	if len(held) != walks {
		t.Errorf("the hung peer saw %d connections, want one per walk (%d)", len(held), walks)
	}
	for _, c := range held {
		// The daemon closed its end: the peer reads the request it never
		// answered and then EOF, not a connection still open for reuse.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); err != nil {
			t.Errorf("a timed-out connection is still open on the daemon's side: %v", err)
		}
		c.Close()
	}
}
