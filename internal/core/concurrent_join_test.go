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

// TestConcurrentJoinsUnderQueryLoad is the §4.4/Theorem 6 regression test
// for the pin-lifetime and wavefront-crossing bugs: waves of simultaneous
// insertions run while a query loop hammers Locate, then Property 1 is
// audited. The query load is what makes the historical failure modes likely
// — it perturbs the join interleavings enough that, before the fixes
// (whole-insertion pin lifetime, step-2 surrogate pin, pre-descend inflight
// forwarding, Figure 10 bounce in the walk driver, atomic register), two
// concurrent inserters could permanently miss each other or seed a join
// from a mid-insertion surrogate's near-empty table.
func TestConcurrentJoinsUnderQueryLoad(t *testing.T) {
	attempts := 20
	if testing.Short() {
		attempts = 4
	}
	spec := ids.Spec{Base: 16, Digits: 8}
	for attempt := 0; attempt < attempts; attempt++ {
		base, waves, batch := 12, 3, 6
		seed := int64(10 + attempt)
		cfg := DefaultConfig()
		cfg.Spec = spec
		rng := rand.New(rand.NewSource(seed))
		total := base + waves*batch
		space := metric.NewRing(4 * total)
		net := netsim.New(space)
		m, err := NewMesh(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(space.Size())
		addrs := make([]netsim.Addr, total)
		for i := range addrs {
			addrs[i] = netsim.Addr(perm[i])
		}
		nodes, _, err := m.GrowSequential(addrs[:base], rng)
		if err != nil {
			t.Fatal(err)
		}
		guids := make([]ids.ID, 6)
		for i := range guids {
			guids[i] = spec.Hash(fmt.Sprintf("cj-%d", i))
			if err := nodes[i%len(nodes)].Publish(guids[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		next := base
		for wave := 0; wave < waves; wave++ {
			var wg sync.WaitGroup
			errs := make([]error, batch)
			for i := 0; i < batch; i++ {
				gw := nodes[rng.Intn(len(nodes))]
				id := spec.Random(rng)
				for m.NodeByID(id) != nil {
					id = spec.Random(rng)
				}
				addr := addrs[next]
				next++
				wg.Add(1)
				go func(i int, gw *Node, id ids.ID, addr netsim.Addr) {
					defer wg.Done()
					_, _, errs[i] = m.Join(gw, id, addr)
				}(i, gw, id, addr)
			}
			stop := make(chan struct{})
			var qwg sync.WaitGroup
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				qrng := rand.New(rand.NewSource(seed * 77))
				for {
					select {
					case <-stop:
						return
					default:
					}
					c := nodes[qrng.Intn(len(nodes))]
					c.Locate(guids[qrng.Intn(len(guids))], nil)
				}
			}()
			wg.Wait()
			close(stop)
			qwg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("attempt %d wave %d: join failed: %v", attempt, wave, err)
				}
			}
			nodes = m.Nodes()
			if v1 := m.AuditProperty1(); len(v1) > 0 {
				t.Fatalf("attempt %d wave %d: %d P1 violations (first: %s)", attempt, wave, len(v1), v1[0])
			}
		}
	}
}

// TestNodesOrderedUnderConcurrentMembership hammers the ID-ordered membership
// list behind Mesh.Nodes from several goroutines at once: writers register
// and unregister nodes while readers snapshot. Every snapshot must be
// strictly ascending by ID (no duplicate, no misplaced entry), and once the
// writers stop the list must equal the registry exactly.
func TestNodesOrderedUnderConcurrentMembership(t *testing.T) {
	const writers, perWriter = 4, 200
	net := netsim.New(metric.NewRing(writers * perWriter))
	m, err := NewMesh(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Nodes() // build the list, so every change below is incremental

	stop := make(chan struct{})
	var readers, ws sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				nodes := m.Nodes()
				for i := 1; i < len(nodes); i++ {
					if !nodes[i-1].id.Less(nodes[i].id) {
						t.Errorf("Nodes() not strictly ascending at %d: %v then %v", i, nodes[i-1].id, nodes[i].id)
						return
					}
				}
			}
		}()
	}
	kept := make([][]*Node, writers)
	for w := 0; w < writers; w++ {
		ws.Add(1)
		go func(w int) {
			defer ws.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				n := m.newNode(m.freshID(rng), netsim.Addr(w*perWriter+i))
				if err := m.publish(n); err != nil {
					continue // two writers drew the same fresh ID; the loser is never listed
				}
				if i%3 == 0 {
					m.unregister(n)
				} else {
					kept[w] = append(kept[w], n)
				}
			}
		}(w)
	}
	ws.Wait()
	close(stop)
	readers.Wait()

	want := 0
	for _, ns := range kept {
		want += len(ns)
	}
	nodes := m.Nodes()
	if len(nodes) != want || m.Size() != want {
		t.Fatalf("Nodes() lists %d, Size() %d, want %d", len(nodes), m.Size(), want)
	}
	for _, n := range nodes {
		if m.NodeByID(n.id) != n {
			t.Fatalf("Nodes() lists %v, which the registry does not hold", n.id)
		}
	}
}
