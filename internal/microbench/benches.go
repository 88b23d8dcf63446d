package microbench

import (
	"fmt"
	"math/rand"

	"tapestry"
	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// The micro set pins the hot paths the perf PRs optimized: the end-to-end
// locate and publish/unpublish, the §4.2 slot search, the per-hop routing
// decision, and the two halves of a batched maintenance epoch — and, from
// OpLocateCached down, the facade's other per-operation costs (cached
// locate, publish, join+leave, a maintenance epoch, address allocation).
// Fixture sizes match the historical `go test -bench` numbers (256-node
// facade network, 64/128-node core meshes) so BENCH_micro.json stays
// comparable with the figures quoted in README's Performance section.

// benchSpec matches internal/core's test spec: short IDs so small meshes
// populate every level.
var benchSpec = ids.Spec{Base: 16, Digits: 6}

// buildCoreMesh mirrors the core package's test fixture: n nodes grown
// sequentially over a sparse ring, addresses drawn as a seeded permutation.
func buildCoreMesh(n int, cfg core.Config, seed int64) (*core.Mesh, []*core.Node) {
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	net := netsim.New(space)
	m, err := core.NewMesh(net, cfg)
	if err != nil {
		panic(err)
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	nodes, _, err := m.GrowSequential(addrs, rng)
	if err != nil {
		panic(err)
	}
	return m, nodes
}

func benchCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Spec = benchSpec
	return cfg
}

// Benches returns the standard micro set in its canonical order.
func Benches() []Benchmark {
	return []Benchmark{
		{Name: "OpLocate", Setup: setupOpLocate},
		{Name: "OpLocateMultiRoot", Setup: setupOpLocateMultiRoot},
		{Name: "OpPublishUnpublish", Setup: setupOpPublishUnpublish},
		{Name: "NearestForSlot", Setup: setupNearestForSlot},
		{Name: "NextHop", Setup: setupNextHop},
		{Name: "SweepDeadEpoch", Setup: setupSweepDeadEpoch},
		{Name: "RepublishAllEpoch", Setup: setupRepublishAllEpoch},
		{Name: "WireEncode", Setup: setupWireEncode},
		{Name: "WireDecode", Setup: setupWireDecode},
		{Name: "LoopbackLocate", Setup: setupLoopbackLocate},
		{Name: "OpLocateCached", Setup: setupOpLocateCached},
		{Name: "OpPublish", Setup: setupOpPublish},
		{Name: "OpJoinLeave", Setup: setupOpJoinLeave},
		{Name: "OpMaintenanceEpoch", Setup: setupOpMaintenanceEpoch},
		{Name: "FreeAddr", Setup: setupFreeAddr},
	}
}

// facadeNetwork grows a settled n-node Tapestry network on a ring four times
// its size, the fixture of every facade-level row.
func facadeNetwork(n int, cfg tapestry.Config) (*tapestry.Network, []*tapestry.Node) {
	nw, err := tapestry.New(tapestry.RingSpace(n*4), cfg)
	if err != nil {
		panic(err)
	}
	nodes, err := nw.Grow(n)
	if err != nil {
		panic(err)
	}
	return nw, nodes
}

// facadeLocate is the body of the three facade locate rows: one object
// published on a settled 256-node network, located round-robin over clients.
func facadeLocate(cfg tapestry.Config) func(b *B) {
	_, nodes := facadeNetwork(256, cfg)
	if _, err := nodes[0].Publish("bench-object"); err != nil {
		panic(err)
	}
	return func(b *B) {
		hops := 0
		for i := 0; i < b.N; i++ {
			res, _ := nodes[i%len(nodes)].Locate("bench-object")
			if !res.Found {
				panic("lost object")
			}
			hops += res.Hops
		}
		b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
	}
}

// OpLocate: the facade-level end-to-end locate.
func setupOpLocate() func(b *B) { return facadeLocate(tapestry.Defaults()) }

// OpLocateMultiRoot: the same end-to-end locate with the availability tier
// turned up (r=4 salted roots, k=3 replicas) — the per-query overhead of the
// pseudo-random root draw plus the occasional extra probe, which must stay a
// small constant over OpLocate on a healthy mesh (every root path is intact,
// so almost every query succeeds on its first probe).
func setupOpLocateMultiRoot() func(b *B) {
	cfg := tapestry.Defaults()
	cfg.RootSetSize = 4
	cfg.Replicas = 3
	return facadeLocate(cfg)
}

// OpLocateCached: OpLocate with the serving layer on and warm — every client
// has located the object once, so repeat queries are answered from the
// per-node locate cache.
func setupOpLocateCached() func(b *B) {
	cfg := tapestry.Defaults()
	cfg.LocateCacheCap = 128
	body := facadeLocate(cfg)
	body(&B{N: 256})
	return body
}

// OpPublishUnpublish: the facade-level write path on the same settled
// 256-node network — one op publishes a name from a node and withdraws it
// again, round-robin over nodes, so every pointer a publish lays along its
// path is one the matching unpublish releases: the churn the pointer store's
// free lists exist to absorb.
func setupOpPublishUnpublish() func(b *B) {
	_, nodes := facadeNetwork(256, tapestry.Defaults())
	return func(b *B) {
		msgs := 0
		for i := 0; i < b.N; i++ {
			n := nodes[i%len(nodes)]
			pub, err := n.Publish("bench-object")
			if err != nil {
				panic(err)
			}
			msgs += pub.Messages + n.Unpublish("bench-object").Messages
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	}
}

// NearestForSlot: one §4.2 slot search on a settled 64-node mesh, the
// repair hot path's dominant cost (mirrors BenchmarkNearestForSlot; the
// random (node, level, digit) sequence is precomputed so only the search is
// timed).
func setupNearestForSlot() func(b *B) {
	_, nodes := buildCoreMesh(64, benchCoreConfig(), 36)
	rng := rand.New(rand.NewSource(37))
	const seqLen = 1 << 12
	type pick struct {
		node  *core.Node
		level int
		digit ids.Digit
	}
	seq := make([]pick, seqLen)
	for i := range seq {
		seq[i] = pick{
			node:  nodes[rng.Intn(len(nodes))],
			level: rng.Intn(2), // low levels are the populated (expensive) ones
			digit: ids.Digit(rng.Intn(benchSpec.Base)),
		}
	}
	return func(b *B) {
		for i := 0; i < b.N; i++ {
			p := seq[i%seqLen]
			p.node.NearestForSlot(p.level, p.digit, nil)
		}
	}
}

// NextHop: the single local routing decision every hop of every walk makes,
// over precomputed random keys on a settled 128-node mesh.
func setupNextHop() func(b *B) {
	_, nodes := buildCoreMesh(128, benchCoreConfig(), 44)
	rng := rand.New(rand.NewSource(45))
	const seqLen = 1 << 12
	keys := make([]ids.ID, seqLen)
	for i := range keys {
		keys[i] = benchSpec.Random(rng)
	}
	return func(b *B) {
		for i := 0; i < b.N; i++ {
			nodes[i%len(nodes)].NextHopDecision(keys[i%seqLen], 0)
		}
	}
}

// SweepDeadEpoch: one mesh-wide coalesced heartbeat on a settled 128-node
// mesh. The msgs/epoch metric equals one round trip per distinct neighbor —
// the scaling the batching exists to deliver.
func setupSweepDeadEpoch() func(b *B) {
	m, nodes := buildCoreMesh(128, benchCoreConfig(), 52)
	distinct := map[ids.ID]struct{}{}
	for _, n := range nodes {
		n.Table().ForEachNeighbor(func(_ int, e route.Entry) {
			distinct[e.ID] = struct{}{}
		})
	}
	return func(b *B) {
		var cost netsim.Cost
		for i := 0; i < b.N; i++ {
			m.SweepDeadAll(&cost)
		}
		b.ReportMetric(float64(cost.Messages())/float64(b.N), "msgs/epoch")
		b.ReportMetric(float64(len(distinct)), "distinct_neighbors")
	}
}

// RepublishAllEpoch: the batched soft-state refresh of 32 objects spread
// over a settled 128-node mesh (one caravan per serving node). msgs/epoch
// scales with distinct next hops; records/epoch is the objects×roots count
// the unbatched walk would pay per-hop for.
func setupRepublishAllEpoch() func(b *B) {
	m, nodes := buildCoreMesh(128, benchCoreConfig(), 60)
	rng := rand.New(rand.NewSource(61))
	records := 0
	for i := 0; i < 32; i++ {
		g := benchSpec.Hash(fmt.Sprintf("micro-%d", i))
		if err := nodes[rng.Intn(len(nodes))].Publish(g, nil); err != nil {
			panic(err)
		}
		records++
	}
	servers := m.Nodes()
	return func(b *B) {
		var cost netsim.Cost
		for i := 0; i < b.N; i++ {
			for _, n := range servers {
				n.RepublishAll(&cost)
			}
		}
		b.ReportMetric(float64(cost.Messages())/float64(b.N), "msgs/epoch")
		b.ReportMetric(float64(records), "records")
	}
}

// benchWireMsgs is a realistic message mix for the codec benches: the walk
// steps every hop sends, a populated table-band response (the largest routine
// payload), and the small notification messages.
func benchWireMsgs() []wire.Msg {
	rng := rand.New(rand.NewSource(77))
	entries := make([]route.Entry, 16)
	for i := range entries {
		entries[i] = route.Entry{
			ID:       benchSpec.Random(rng),
			Addr:     netsim.Addr(rng.Intn(1024)),
			Distance: rng.Float64() * 500,
		}
	}
	return []wire.Msg{
		&wire.RouteStep{Key: benchSpec.Random(rng), Level: 3, Op: wire.RouteOpRoute},
		&wire.LocateStep{GUID: benchSpec.Random(rng), Key: benchSpec.Random(rng), Level: 2, Hops: 4},
		&wire.TableBandReq{Floor: 1, Fold: -1},
		&wire.TableBandResp{Entries: entries},
		&wire.BackAdd{Level: 2, From: entries[0]},
		&wire.McastStep{P: benchSpec.Random(rng).Prefix(2), Root: benchSpec.Random(rng).Prefix(1),
			NewNode: entries[1], HoleLevel: 1},
	}
}

// WireEncode: steady-state framing of the routine message mix into a reused
// buffer — the per-hop encode cost of the loopback and TCP transports.
func setupWireEncode() func(b *B) {
	msgs := benchWireMsgs()
	return func(b *B) {
		var buf []byte
		total := 0
		for i := 0; i < b.N; i++ {
			buf = wire.AppendFrame(buf[:0], msgs[i%len(msgs)])
			total += len(buf)
		}
		b.ReportMetric(float64(total)/float64(b.N), "bytes/op")
	}
}

// WireDecode: the zero-allocation DecodeFrameInto path over pre-encoded
// frames with recycled message structs — the per-hop decode cost.
func setupWireDecode() func(b *B) {
	msgs := benchWireMsgs()
	frames := make([][]byte, len(msgs))
	recycled := make([]wire.Msg, len(msgs))
	for i, m := range msgs {
		frames[i] = wire.AppendFrame(nil, m)
		recycled[i] = wire.New(m.WireType())
	}
	return func(b *B) {
		for i := 0; i < b.N; i++ {
			j := i % len(frames)
			if _, err := wire.DecodeFrameInto(frames[j], recycled[j]); err != nil {
				panic(err)
			}
		}
	}
}

// LoopbackLocate: the core end-to-end locate with every message round-tripped
// through the codec — OpLocate's counterpart measuring the full serialization
// tax on a settled 64-node mesh.
func setupLoopbackLocate() func(b *B) {
	cfg := benchCoreConfig()
	cfg.Transport = core.TransportLoopback
	_, nodes := buildCoreMesh(64, cfg, 68)
	g := benchSpec.Hash("loopback-object")
	if err := nodes[0].Publish(g, nil); err != nil {
		panic(err)
	}
	return func(b *B) {
		hops := 0
		for i := 0; i < b.N; i++ {
			var cost netsim.Cost
			res := nodes[i%len(nodes)].Locate(g, &cost)
			if !res.Found {
				panic("lost object")
			}
			hops += res.Hops
		}
		b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
	}
}

// OpPublish: the facade publish alone on the settled 256-node network. The
// 4096 names are spread 16 to a node and announced once in setup, so every
// timed op is what a long-lived server's publish is — the soft-state refresh
// of a standing single-replica object along its whole path — and the pointer
// population stays fixed however long the harness runs.
func setupOpPublish() func(b *B) {
	_, nodes := facadeNetwork(256, tapestry.Defaults())
	names := make([]string, 16*len(nodes))
	publish := func(i int) int {
		c, err := nodes[i%len(nodes)].Publish(names[i%len(names)])
		if err != nil {
			panic(err)
		}
		return c.Messages
	}
	for i := range names {
		names[i] = fmt.Sprintf("obj-%d", i)
		publish(i)
	}
	return func(b *B) {
		msgs := 0
		for i := 0; i < b.N; i++ {
			msgs += publish(i)
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	}
}

// OpJoinLeave: one dynamic insertion (§4) into a settled 128-node network at
// a random free point, followed by that node's voluntary departure (§5.1), so
// the population is the same before every op.
func setupOpJoinLeave() func(b *B) {
	nw, _ := facadeNetwork(128, tapestry.Defaults())
	return func(b *B) {
		before := nw.TotalMessages()
		for i := 0; i < b.N; i++ {
			joined, err := nw.Grow(1)
			if err != nil {
				panic(err)
			}
			if _, err := joined[0].Leave(); err != nil {
				panic(err)
			}
		}
		b.ReportMetric(float64(nw.TotalMessages()-before)/float64(b.N), "msgs/op")
	}
}

// OpMaintenanceEpoch: one facade RunMaintenance — expiry plus the republish
// of 32 objects — on a settled 128-node network.
func setupOpMaintenanceEpoch() func(b *B) {
	nw, nodes := facadeNetwork(128, tapestry.Defaults())
	for i := 0; i < 32; i++ {
		if _, err := nodes[i].Publish(fmt.Sprintf("m-%d", i)); err != nil {
			panic(err)
		}
	}
	return func(b *B) {
		msgs := 0
		for i := 0; i < b.N; i++ {
			msgs += nw.RunMaintenance().Messages
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/epoch")
	}
}

// FreeAddr: the facade's free-point allocator, per point handed out, seen
// through the one exported path that is mostly it: the bulk Grow that fills
// three quarters of a fresh 4096-point ring on the directory protocol, whose
// Build is one registration per member. The shuffled-stack allocator is O(1)
// per point whatever the occupancy; the linear probe it replaced slowed as
// the space filled and made dense construction quadratic.
func setupFreeAddr() func(b *B) {
	const size, fill = 4096, 4096 * 3 / 4
	space := tapestry.RingSpace(size)
	return func(b *B) {
		for done := 0; done < b.N; {
			k := b.N - done
			if k > fill {
				k = fill
			}
			nw, err := tapestry.NewProtocol(space, tapestry.Directory, tapestry.Defaults())
			if err != nil {
				panic(err)
			}
			if _, err := nw.Grow(k); err != nil {
				panic(err)
			}
			done += k
		}
	}
}
