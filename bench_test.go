package tapestry

// Op-level micro-benchmarks that neither BENCH_micro.json (the gated hot-path
// set, internal/microbench) nor bench/ (the end-to-end benchmark) covers. The
// paper's tables come from cmd/benchtables; run these with:
//
//	go test -run '^$' -bench . -benchmem .

import (
	"fmt"
	"math/rand"
	"testing"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// --- Micro-benchmarks: per-operation costs -------------------------------

func benchNetwork(b *testing.B, n int) (*Network, []*Node) {
	b.Helper()
	nw, err := New(RingSpace(n*4), Defaults())
	if err != nil {
		b.Fatal(err)
	}
	nodes, err := nw.Grow(n)
	if err != nil {
		b.Fatal(err)
	}
	return nw, nodes
}

// BenchmarkFreeAddr pins the Grow-step address allocator: the shuffled-stack
// design amortizes to O(1) per allocation — measured ~80-90ns/0 allocs,
// independent of space size AND occupancy. The linear probe it replaced
// walked the space from a random start under nw.mu, paying a locked mesh
// map lookup per probed address: ~60ns at 75% occupancy but ~360-400ns at
// 99% and Θ(size) as the space fills, which made dense overlay
// construction quadratic.
func BenchmarkFreeAddr(b *testing.B) {
	for _, size := range []int{4096, 32768} {
		size := size
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			nw, err := New(RingSpace(size), Defaults())
			if err != nil {
				b.Fatal(err)
			}
			// Occupy three quarters of the space so every pick works at the
			// density where the old probe degraded worst.
			taken, err := nw.freeAddrs(size * 3 / 4)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range taken {
				nw.sim.Attach(a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := nw.freeAddr()
				if err != nil {
					b.Fatal(err)
				}
				// Attach-then-detach keeps occupancy steady at 75%, the
				// density where the old probe degraded worst, while letting
				// the stack exercise its rebuild path.
				nw.sim.Attach(netsim.Addr(a))
				nw.sim.Detach(netsim.Addr(a))
			}
		})
	}
}

// BenchmarkOpLocateCached is the facade locate on a settled 256-node network
// (BENCH_micro.json's OpLocate) with the serving layer on and warm: repeat
// queries are answered from the per-node locate cache.
func BenchmarkOpLocateCached(b *testing.B) {
	cfg := Defaults()
	cfg.LocateCacheCap = 128
	nw, err := New(RingSpace(256*4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	nodes, err := nw.Grow(256)
	if err != nil {
		b.Fatal(err)
	}
	nodes[0].Publish("bench-object")
	for _, n := range nodes {
		if res, _ := n.Locate("bench-object"); !res.Found {
			b.Fatal("warmup failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := nodes[i%len(nodes)].Locate("bench-object")
		if !res.Found {
			b.Fatal("lost object")
		}
	}
}

func BenchmarkOpPublish(b *testing.B) {
	_, nodes := benchNetwork(b, 256)
	// Object names are precomputed so the timed loop measures Publish, not
	// fmt.Sprintf.
	names := make([]string, b.N)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Publish(names[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpJoinLeave(b *testing.B) {
	nw, _ := benchNetwork(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		addrI, err := nw.freeAddr()
		if err != nil {
			b.Fatal(err)
		}
		n, cost, err := nw.AddNode(addrI)
		if err != nil {
			b.Fatal(err)
		}
		msgs += cost.Messages
		if _, err := n.Leave(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "joinmsgs/op")
}

func BenchmarkOpMaintenanceEpoch(b *testing.B) {
	nw, nodes := benchNetwork(b, 128)
	for i := 0; i < 32; i++ {
		nodes[i].Publish(fmt.Sprintf("m-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		c := nw.RunMaintenance()
		msgs += c.Messages
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/epoch")
}

// --- Substrate micro-benchmarks: the lock-free/on-demand hot paths --------

// BenchmarkNetSend measures the netsim hot path (cost accounting + liveness
// check) under full parallelism — the path every simulated message takes.
func BenchmarkNetSend(b *testing.B) {
	n := netsim.New(metric.NewRing(4096))
	for a := 0; a < 4096; a++ {
		n.Attach(netsim.Addr(a))
	}
	var cost netsim.Cost
	b.RunParallel(func(pb *testing.PB) {
		a := netsim.Addr(0)
		for pb.Next() {
			_ = n.Send(a, (a+17)%4096, &cost, true)
			a = (a + 1) % 4096
		}
	})
}

// BenchmarkCostAdd measures contention on one shared Cost ledger.
func BenchmarkCostAdd(b *testing.B) {
	var cost netsim.Cost
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cost.Add(1.5, true)
		}
	})
}

// BenchmarkNetAlive measures the liveness bitset read path.
func BenchmarkNetAlive(b *testing.B) {
	n := netsim.New(metric.NewRing(4096))
	for a := 0; a < 4096; a += 2 {
		n.Attach(netsim.Addr(a))
	}
	b.RunParallel(func(pb *testing.PB) {
		a := netsim.Addr(0)
		for pb.Next() {
			_ = n.Alive(a)
			a = (a + 1) % 4096
		}
	})
}

// BenchmarkSpaceDistance measures Space.Distance across representations:
// lattice (ring), point cloud, graph metric as a materialised matrix, and
// the same graph size as an on-demand space (cache-hot after one pass).
func BenchmarkSpaceDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	spaces := map[string]metric.Space{
		"ring":         metric.NewRing(4096),
		"cloud":        metric.NewUniformCloud(4096, rng),
		"graph-dense":  metric.NewRandomGraph(1024, 3, 10, rng),
		"graph-lazy":   metric.NewRandomGraph(4096, 3, 10, rng),
		"transit-stub": metric.NewTransitStub(metric.ScaledTransitStub(4096), rng),
	}
	for _, name := range []string{"ring", "cloud", "graph-dense", "graph-lazy", "transit-stub"} {
		s := spaces[name]
		b.Run(name, func(b *testing.B) {
			n := s.Size()
			// Touch a bounded source set first so the lazy representations
			// measure steady-state (cached-row) reads, not Dijkstra.
			for i := 0; i < 64; i++ {
				_ = s.Distance(i, n-1-i)
			}
			b.ResetTimer()
			j := 0
			for i := 0; i < b.N; i++ {
				_ = s.Distance(i&63, j)
				j++
				if j == n {
					j = 0
				}
			}
		})
	}
}

// BenchmarkLiveCount measures the O(1) maintained live count (formerly an
// O(n) scan under a read lock).
func BenchmarkLiveCount(b *testing.B) {
	n := netsim.New(metric.NewRing(4096))
	for a := 0; a < 4096; a += 2 {
		n.Attach(netsim.Addr(a))
	}
	for i := 0; i < b.N; i++ {
		_ = n.LiveCount()
	}
}
