package procnode

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

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

// exchange is the harness side of one control round trip.
func exchange(t *testing.T, c net.Conn, req wire.Msg) wire.Msg {
	t.Helper()
	if _, err := wire.WriteMsg(c, nil, req); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := wire.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterMatchesInProcessMesh boots three daemons on loopback sockets,
// provisions them from a static core mesh, and requires every publish to end
// at the oracle's root and every locate, from every daemon, to name the
// server and hop count the in-process mesh answers with.
func TestClusterMatchesInProcessMesh(t *testing.T) {
	m, nodes := staticMesh(t, 3, 7)
	conns := make([]net.Conn, len(nodes))
	eps := make([]wire.Endpoint, len(nodes))
	for i, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go New().Serve(ln)
		eps[i] = wire.Endpoint{Addr: n.Addr(), HostPort: ln.Addr().String()}
	}
	for i, n := range nodes {
		c, err := net.Dial("tcp", eps[i].HostPort)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
		if _, ok := exchange(t, c, installFor(m, n, eps)).(*wire.ClusterAck); !ok {
			t.Fatalf("daemon %d refused its install", i)
		}
	}

	// One object per daemon, published on both sides.
	guids := make([]ids.ID, len(nodes))
	for s, n := range nodes {
		g := testSpec.Hash(fmt.Sprintf("object-%d", s))
		guids[s] = g
		exchange(t, conns[s], &wire.ClusterServe{GUIDs: []ids.ID{g}})
		done := exchange(t, conns[s], &wire.ClusterPublish{GUID: g, Key: g, Server: n.ID(), ServerAddr: n.Addr()}).(*wire.ClusterPubDone)
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
			got := exchange(t, conns[c], &wire.ClusterLocate{GUID: g, Key: g}).(*wire.ClusterFound)
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
