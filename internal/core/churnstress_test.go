package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// TestChurnStressAvailability runs many independent churn scenarios —
// concurrent joins, voluntary departures and queries — and requires every
// object to be locatable from every node once the dust settles. On failure
// it dumps the full pointer state for the lost object; this harness caught
// two real protocol bugs during development (a stale-trail backward delete
// racing a root transfer, and a root transfer keyed to the wrong level).
func TestChurnStressAvailability(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 6
	}
	for iter := 0; iter < iters; iter++ {
		if msg := runChurnOnce(t, int64(1000+iter)); msg != "" {
			t.Fatalf("iter %d:\n%s", iter, msg)
		}
	}
}

func runChurnOnce(t *testing.T, seed int64) string {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(1024)
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(space.Size())
	next := 0
	takeAddr := func() netsim.Addr { a := netsim.Addr(perm[next]); next++; return a }
	if _, err := m.Bootstrap(testSpec.Random(rng), takeAddr()); err != nil {
		t.Fatal(err)
	}
	var servers []*Node
	for i := 0; i < 24; i++ {
		gw := m.randomLiveNode(rng)
		n, _, err := m.Join(gw, m.freshID(rng), takeAddr())
		if err != nil {
			t.Fatal(err)
		}
		if i < 6 {
			servers = append(servers, n)
		}
	}
	guids := make([]ids.ID, len(servers))
	for i, s := range servers {
		guids[i] = testSpec.Hash(fmt.Sprintf("churn-object-%d-%d", seed, i))
		if err := s.Publish(guids[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		qrng := rand.New(rand.NewSource(seed * 7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			nodes := m.Nodes()
			if len(nodes) == 0 {
				continue
			}
			c := nodes[qrng.Intn(len(nodes))]
			g := guids[qrng.Intn(len(guids))]
			c.Locate(g, nil)
		}
	}()

	serverSet := map[string]bool{}
	for _, s := range servers {
		serverSet[s.id.String()] = true
	}
	for i := 0; i < 12; i++ {
		gw := m.randomLiveNode(rng)
		n, _, err := m.Join(gw, m.freshID(rng), takeAddr())
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			for _, cand := range m.Nodes() {
				if !serverSet[cand.id.String()] && cand != n {
					_ = cand.Leave(nil)
					break
				}
			}
		}
	}
	close(stop)
	qwg.Wait()

	// Post-churn, quiescent: every object must be locatable from everywhere.
	for gi, g := range guids {
		for _, c := range m.Nodes() {
			if res := c.Locate(g, nil); !res.Found {
				return dumpObject(m, g, servers[gi], c)
			}
		}
	}
	return ""
}

func dumpObject(m *Mesh, guid ids.ID, server, client *Node) string {
	out := fmt.Sprintf("object %v (server %v) not found from %v\n", guid, server.id, client.id)
	key := m.cfg.Spec.Salt(guid, 0)
	out += fmt.Sprintf("key %v\n", key)
	// Walk from client and from server, dumping rec presence.
	for name, start := range map[string]*Node{"client": client, "server": server} {
		out += name + " walk:\n"
		path, err := start.routePath(key)
		for _, cur := range path {
			cur.mu.Lock()
			recs := "none"
			if st := cur.find(guid); st != nil {
				recs = ""
				for _, r := range st.recs {
					recs += fmt.Sprintf("(srv=%v lastHop=%v lvl=%d root=%v) ", r.server, r.lastHop, r.level, r.root)
				}
			}
			state := cur.state.load()
			cur.mu.Unlock()
			out += fmt.Sprintf("  node %v state=%d recs=%s\n", cur.id, state, recs)
		}
		out += fmt.Sprintf("  terminal: %v err=%v\n", path[len(path)-1].id, err)
	}
	// Server's view of whether it still publishes.
	server.mu.Lock()
	_, serves := server.published.Get(guid)
	server.mu.Unlock()
	out += fmt.Sprintf("server published=%v pointerCount=%d\n", serves, 0)
	// Global pointer census for this guid.
	out += "all recs:\n"
	for _, n := range m.Nodes() {
		n.mu.Lock()
		if st := n.find(guid); st != nil {
			for _, r := range st.recs {
				out += fmt.Sprintf("  at %v: srv=%v lastHop=%v lvl=%d root=%v epoch=%d\n",
					n.id, r.server, r.lastHop, r.level, r.root, r.epoch)
			}
		}
		n.mu.Unlock()
	}
	return out
}
