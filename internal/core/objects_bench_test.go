package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// benchStaticMesh stands up a static mesh (oracle construction — the cheap
// path for read-mostly benchmarks) of n nodes on a sparse ring.
func benchStaticMesh(b *testing.B, n int, cfg Config, seed int64) (*Mesh, []*Node) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	net := netsim.New(space)
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	parts := StaticParticipants(cfg.Spec, addrs, rng)
	m, err := BuildStatic(net, cfg, parts)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]*Node, len(addrs))
	for i, a := range addrs {
		nodes[i] = m.NodeAt(a)
	}
	return m, nodes
}

// BenchmarkServeQueryManyPointers is the satellite regression benchmark for
// the serveQuery selection pass: one node holding many replica pointers for
// a single GUID (the root of a well-replicated object). The old
// implementation copied the record list and spliced it per probe — O(k²)
// with allocation; the single-pass selection is O(k) with none.
func BenchmarkServeQueryManyPointers(b *testing.B) {
	for _, replicas := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := testConfig()
			_, nodes := benchStaticMesh(b, 128, cfg, 7)
			guid := testSpec.Hash("replicated-object")
			for i := 0; i < replicas; i++ {
				if err := nodes[i].Publish(guid, nil); err != nil {
					b.Fatal(err)
				}
			}
			// The root holds one pointer per replica; every node on a publish
			// path holds at least one.
			var serving *Node
			for _, n := range nodes {
				n.mu.Lock()
				st := n.find(guid)
				hit := st != nil && len(st.recs) == replicas
				n.mu.Unlock()
				if hit {
					serving = n
					break
				}
			}
			if serving == nil {
				b.Fatal("no node aggregates all replica pointers")
			}
			f := serving.mesh.getFrames()
			defer serving.mesh.putFrames(f)
			w := f.newWalk(stepPeek, &f.locate, guid, nil)
			w.guid = guid
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !w.serveQuery(serving, f) {
					b.Fatal("pointer hit expected")
				}
			}
		})
	}
}

// BenchmarkCoreLocate measures the core-level query hot path (no facade
// hashing/rendering) with the cache off: after the map rekeying and lazy
// dead-set work this path performs zero heap allocations.
func BenchmarkCoreLocate(b *testing.B) {
	_, nodes := benchStaticMesh(b, 256, testConfig(), 11)
	guid := testSpec.Hash("bench-object")
	if err := nodes[0].Publish(guid, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !nodes[i%len(nodes)].Locate(guid, nil).Found {
			b.Fatal("lost object")
		}
	}
}

// BenchmarkCoreLocateCached measures the same workload with the serving
// layer on and warm: repeat queries are answered at the first hop from the
// per-node LRU.
func BenchmarkCoreLocateCached(b *testing.B) {
	cfg := testConfig()
	cfg.LocateCacheCap = 128
	_, nodes := benchStaticMesh(b, 256, cfg, 11)
	guid := testSpec.Hash("bench-object")
	if err := nodes[0].Publish(guid, nil); err != nil {
		b.Fatal(err)
	}
	for _, n := range nodes {
		if !n.Locate(guid, nil).Found {
			b.Fatal("warmup failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !nodes[i%len(nodes)].Locate(guid, nil).Found {
			b.Fatal("lost object")
		}
	}
}
