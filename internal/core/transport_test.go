package core

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// buildMeshTransport is buildMesh with an explicit transport backend.
func buildMeshTransport(t testing.TB, n int, seed int64, k TransportKind) (*Mesh, []*Node) {
	t.Helper()
	cfg := testConfig()
	cfg.Transport = k
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatalf("NewMesh(%v): %v", k, err)
	}
	t.Cleanup(func() { m.Close() })
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	nodes, _, err := m.GrowSequential(addrs, rng)
	if err != nil {
		t.Fatalf("GrowSequential(%v): %v", k, err)
	}
	return m, nodes
}

var allTransports = []TransportKind{TransportDirect, TransportLoopback, TransportTCP}

// TestDeadPeerErrorUniform pins the unified failure semantics of satellite
// transports: on every backend, probing a crashed node and probing a stale
// entry (live address, different ID) both yield a *PeerError, and the
// underlying causes agree — unreachable host vs. departed overlay node. The
// twin meshes are built from the same seed, so the scenario is identical on
// each backend.
func TestDeadPeerErrorUniform(t *testing.T) {
	for _, k := range allTransports {
		m, nodes := buildMeshTransport(t, 16, 7, k)

		victim, observer := nodes[3], nodes[5]
		ve := victim.entryFor(observer.addr)
		m.Fail(victim)

		cost := &netsim.Cost{}
		_, err := m.invoke(observer.addr, ve, msgPing, msgAck, cost, false)
		if err == nil {
			t.Fatalf("%v: probe of failed node succeeded", k)
		}
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: probe error %T is not *PeerError: %v", k, err, err)
		}
		if !pe.To.ID.Equal(ve.ID) {
			t.Errorf("%v: PeerError.To = %v, want %v", k, pe.To.ID, ve.ID)
		}
		if !errors.Is(err, netsim.ErrUnreachable) {
			t.Errorf("%v: cause %v, want netsim.ErrUnreachable", k, pe.Err)
		}

		// A stale entry: the address is alive but hosts a different ID.
		stale := route.Entry{ID: ids.FromDigits([]ids.Digit{1, 2, 3, 4, 5, 6}),
			Addr: nodes[8].addr}
		_, err = m.invoke(observer.addr, stale, msgPing, msgAck, cost, false)
		if err == nil {
			t.Fatalf("%v: probe of stale entry succeeded", k)
		}
		if !errors.As(err, &pe) {
			t.Fatalf("%v: stale-entry error %T is not *PeerError", k, err)
		}
		if !errors.Is(err, errDead) {
			t.Errorf("%v: stale-entry cause %v, want errDead", k, pe.Err)
		}

		// One-way sends agree with invokes.
		_, err = m.oneWayMsg(observer.addr, ve, msgPing, cost)
		if !errors.As(err, &pe) {
			t.Fatalf("%v: one-way error %T is not *PeerError", k, err)
		}
	}
}

// TestDirectLoopbackTwinIdentical builds the same mesh on the direct and
// loopback backends and requires identical message totals and identical
// publish/locate outcomes — the codec round-trip may not change behavior or
// simulated cost anywhere.
func TestDirectLoopbackTwinIdentical(t *testing.T) {
	type result struct {
		msgs    int64
		hops    []int
		founds  []bool
		removed int
	}
	run := func(k TransportKind) result {
		m, nodes := buildMeshTransport(t, 24, 11, k)
		rng := rand.New(rand.NewSource(99))
		var guids []ids.ID
		for i := 0; i < 6; i++ {
			g := testSpec.Random(rng)
			srv := nodes[i*3]
			if err := srv.Publish(g, &netsim.Cost{}); err != nil {
				t.Fatalf("%v: publish: %v", k, err)
			}
			guids = append(guids, g)
		}
		var r result
		for _, g := range guids {
			for _, qi := range []int{1, 7, 20} {
				cost := &netsim.Cost{}
				res := nodes[qi].Locate(g, cost)
				r.founds = append(r.founds, res.Found)
				r.hops = append(r.hops, res.Hops)
			}
		}
		// A leave and a sweep keep the maintenance paths in the comparison.
		if err := nodes[2].Leave(&netsim.Cost{}); err != nil {
			t.Fatalf("%v: leave: %v", k, err)
		}
		m.Fail(nodes[4])
		r.removed = m.SweepDeadAll(&netsim.Cost{})
		r.msgs = m.net.TotalMessages()
		return r
	}

	direct := run(TransportDirect)
	loop := run(TransportLoopback)
	if direct.msgs != loop.msgs {
		t.Errorf("message totals diverge: direct %d, loopback %d", direct.msgs, loop.msgs)
	}
	if direct.removed != loop.removed {
		t.Errorf("sweep removals diverge: direct %d, loopback %d", direct.removed, loop.removed)
	}
	for i := range direct.founds {
		if direct.founds[i] != loop.founds[i] || direct.hops[i] != loop.hops[i] {
			t.Errorf("locate %d diverges: direct (%v,%d) loopback (%v,%d)",
				i, direct.founds[i], direct.hops[i], loop.founds[i], loop.hops[i])
		}
	}
}

// TestTCPRejectsEventEngine pins the construction-time incompatibility: real
// sockets cannot park on virtual time.
func TestTCPRejectsEventEngine(t *testing.T) {
	space := metric.NewRing(16)
	net := netsim.New(space)
	net.AttachEngine(netsim.NewEngine(1))
	cfg := testConfig()
	cfg.Transport = TransportTCP
	if _, err := NewMesh(net, cfg); err == nil {
		t.Fatal("NewMesh accepted TCP transport with an event engine attached")
	}
}

// TestParseTransport covers the flag/environment surface.
func TestParseTransport(t *testing.T) {
	for s, want := range map[string]TransportKind{
		"":         TransportAuto,
		"auto":     TransportAuto,
		"direct":   TransportDirect,
		"loopback": TransportLoopback,
		"tcp":      TransportTCP,
	} {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Error("ParseTransport accepted an unknown backend")
	}
}

// TestLoopbackInvokeAllocatesNothing pins the per-message budget of the codec
// path: once the scratch is warm, a locate hop (LocateStep/Ack) and a replica
// verification (VerifyReq/VerifyResp) each round-trip request and response
// through the wire format without touching the heap.
func TestLoopbackInvokeAllocatesNothing(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool is dropping items (the race detector does, on purpose): allocation counts would measure that")
	}
	m, nodes := buildMeshTransport(t, 16, 7, TransportLoopback)
	from, to := nodes[1], nodes[2]
	peer := to.entryFor(from.addr)
	guid := testSpec.Hash("budget")
	if err := to.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	f := m.getFrames()
	defer m.putFrames(f)
	f.locate.GUID, f.locate.Key, f.locate.Level, f.locate.Hops = guid, guid, 1, 2
	f.verify.GUID = guid
	cost := &netsim.Cost{}
	for name, invoke := range map[string]func() error{
		"LocateStep/Ack": func() error {
			_, err := m.invoke(from.addr, peer, &f.locate, msgAck, cost, true)
			return err
		},
		"VerifyReq/VerifyResp": func() error {
			_, err := m.invoke(from.addr, peer, &f.verify, &f.verifyResp, cost, true)
			return err
		},
	} {
		if err := invoke(); err != nil { // warms the scratch and its recycled structs
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(200, func() { _ = invoke() }); n != 0 {
			t.Errorf("%s: %v allocs per loopback Invoke, want 0", name, n)
		}
	}
	if !f.verifyResp.Serves {
		t.Error("VerifyResp.Serves = false for a published object")
	}
}

// poolDropsItems reports whether a sync.Pool loses what was just put into it,
// as it does under the race detector, which discards a quarter of all Puts.
func poolDropsItems() bool {
	var p sync.Pool
	item := new(int)
	for i := 0; i < 64; i++ {
		p.Put(item)
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// hungPeer listens and accepts, and never answers. closed stops it and
// returns the connections it saw, each of which the caller it hung must have
// closed: the peer reads the request it never answered and then EOF, not a
// connection still open for reuse.
func hungPeer(t *testing.T) (addr string, closed func() int) {
	t.Helper()
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
	return ln.Addr().String(), func() int {
		ln.Close()
		held := <-accepted
		for _, c := range held {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 256)
			for {
				if _, err := c.Read(buf); err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						t.Error("a timed-out connection is still open on the caller's side")
					}
					break
				}
			}
			c.Close()
		}
		return len(held)
	}
}

// TestTCPExchangeTimeout points a TCP mesh's client at a listener that
// accepts and never answers: every message must come back from m.invoke and
// m.oneWayMsg within the bound as a *PeerError wrapping a timeout, and the
// connection it hung on must be closed rather than pooled for the next caller
// to hang on — the peer sees one connection per exchange.
func TestTCPExchangeTimeout(t *testing.T) {
	m, nodes := buildMeshTransport(t, 8, 3, TransportTCP)
	addr, closed := hungPeer(t)
	tr := m.tr.(*tcpTransport)
	tr.client.Close()
	tr.client = wire.NewClient(addr)
	tr.client.Timeout = 40 * time.Millisecond
	from, peer := nodes[0], nodes[1].entryFor(nodes[0].addr)
	for i, call := range []func() (*Node, error){
		func() (*Node, error) { return m.invoke(from.addr, peer, msgPing, msgAck, nil, false) },
		func() (*Node, error) { return m.oneWayMsg(from.addr, peer, msgPing, nil) },
		func() (*Node, error) { return m.invoke(from.addr, peer, msgPing, msgAck, nil, false) },
	} {
		start := time.Now()
		_, err := call()
		var pe *PeerError
		var ne net.Error
		if !errors.As(err, &pe) || !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("exchange %d: err = %v, want a *PeerError wrapping a timeout", i, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("exchange %d took %v against a %v bound", i, d, tr.client.Timeout)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := closed(); n != 3 {
		t.Errorf("the hung peer saw %d connections, want one per exchange (3)", n)
	}
}

// TestHandlerCostCrossesSocket: a Leave and a Join run most of their traffic
// inside handlers (notifications, repairs, backpointer updates). On every
// transport, TCP included, the Cost they report is exactly what the network
// counted while they ran.
func TestHandlerCostCrossesSocket(t *testing.T) {
	for _, k := range allTransports {
		m, nodes := buildMeshTransport(t, 32, 5, k)
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 8; i++ {
			if err := nodes[i*3].Publish(testSpec.Random(rng), nil); err != nil {
				t.Fatalf("%v: publish: %v", k, err)
			}
		}
		before := m.net.TotalMessages()
		var leave netsim.Cost
		if err := nodes[3].Leave(&leave); err != nil {
			t.Fatalf("%v: leave: %v", k, err)
		}
		if sent := m.net.TotalMessages() - before; int64(leave.Messages()) != sent || sent == 0 {
			t.Errorf("%v: the leave reports %d messages, the network counted %d", k, leave.Messages(), sent)
		}
		before = m.net.TotalMessages()
		_, join, err := m.Join(nodes[0], m.freshID(rng), freeAddr(m))
		if err != nil {
			t.Fatalf("%v: join: %v", k, err)
		}
		if sent := m.net.TotalMessages() - before; int64(join.Messages()) != sent || sent == 0 {
			t.Errorf("%v: the join reports %d messages, the network counted %d", k, join.Messages(), sent)
		}
	}
}
