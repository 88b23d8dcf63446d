package core

import (
	"fmt"
	"sync"
	"testing"

	"tapestry/internal/netsim"
)

func cacheConfig() Config {
	cfg := testConfig()
	cfg.LocateCacheCap = 64
	return cfg
}

// TestLocateCacheServesRepeatQueries: the second query for an object from
// the same client is answered from the client's own cached mapping — fewer
// hops than the pointer walk — and the mesh counters see the hit.
func TestLocateCacheServesRepeatQueries(t *testing.T) {
	m, nodes := buildMesh(t, 48, cacheConfig(), 41)
	guid := testSpec.Hash("hot-object")
	server := nodes[3]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	client := nodes[40]
	if client.id.Equal(server.id) {
		t.Fatal("test needs distinct client and server")
	}
	first := client.Locate(guid, nil)
	if !first.Found || first.FromCache {
		t.Fatalf("first locate: found=%v fromCache=%v, want pointer hit", first.Found, first.FromCache)
	}
	second := client.Locate(guid, nil)
	if !second.Found || !second.FromCache {
		t.Fatalf("second locate: found=%v fromCache=%v, want cache hit", second.Found, second.FromCache)
	}
	if second.Hops != 1 {
		t.Errorf("cached locate took %d hops, want 1 (client answers itself)", second.Hops)
	}
	if second.Hops > first.Hops {
		t.Errorf("cached locate took %d hops, uncached took %d", second.Hops, first.Hops)
	}
	hits, misses := m.LocateCacheStats()
	if hits < 1 || misses < 1 {
		t.Errorf("cache counters hits=%d misses=%d, want at least one of each", hits, misses)
	}
	if m.CachedMappings() == 0 {
		t.Error("no cached mappings after a successful locate")
	}
}

// TestLocateCacheOffIsInert: with LocateCacheCap == 0 (the default) no node
// allocates a cache, no counter moves, and results never claim FromCache.
func TestLocateCacheOffIsInert(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 42)
	guid := testSpec.Hash("cold-object")
	if err := nodes[0].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res := nodes[10].Locate(guid, nil)
		if !res.Found || res.FromCache {
			t.Fatalf("locate %d: found=%v fromCache=%v", i, res.Found, res.FromCache)
		}
	}
	if hits, misses := m.LocateCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("cache-off counters moved: hits=%d misses=%d", hits, misses)
	}
	for _, n := range m.Nodes() {
		if n.cache != nil || n.CacheSize() != 0 {
			t.Fatalf("node %v allocated a cache with the feature off", n.id)
		}
	}
}

// TestCacheNeverServesUnpublishedReplica: after a replica withdraws, no
// query may be served from a stale cached mapping naming it — use is always
// verified with the replica, and the unpublish walk invalidates hints along
// the publish path.
func TestCacheNeverServesUnpublishedReplica(t *testing.T) {
	m, nodes := buildMesh(t, 48, cacheConfig(), 43)
	guid := testSpec.Hash("churning-object")
	a, b := nodes[5], nodes[17]
	if err := a.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	// Warm caches from every node.
	for _, c := range m.Nodes() {
		if !c.Locate(guid, nil).Found {
			t.Fatalf("warmup locate from %v failed", c.id)
		}
	}
	a.Unpublish(guid, nil)
	for _, c := range m.Nodes() {
		res := c.Locate(guid, nil)
		if !res.Found {
			t.Fatalf("locate from %v failed after unpublish of one replica", c.id)
		}
		if res.Server.Equal(a.id) {
			t.Fatalf("locate from %v served withdrawn replica %v (fromCache=%v)", c.id, a.id, res.FromCache)
		}
	}
}

// TestCacheNeverServesDeadReplica: same guarantee when the replica crashes
// instead of withdrawing — verification fails, the hint is dropped, and the
// query falls back to the surviving replica.
func TestCacheNeverServesDeadReplica(t *testing.T) {
	m, nodes := buildMesh(t, 48, cacheConfig(), 44)
	guid := testSpec.Hash("crashing-object")
	a, b := nodes[5], nodes[17]
	if err := a.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Nodes() {
		if !c.Locate(guid, nil).Found {
			t.Fatalf("warmup locate from %v failed", c.id)
		}
	}
	m.Fail(a)
	for _, c := range m.Nodes() {
		res := c.Locate(guid, nil)
		if res.Found && res.Server.Equal(a.id) {
			t.Fatalf("locate from %v served dead replica %v (fromCache=%v)", c.id, a.id, res.FromCache)
		}
	}
}

// TestCacheExpiresWithSoftStateTTL: cached mappings are epoch-stamped and
// swept by the same maintenance pass that expires pointers.
func TestCacheExpiresWithSoftStateTTL(t *testing.T) {
	m, nodes := buildMesh(t, 32, cacheConfig(), 45)
	guid := testSpec.Hash("ttl-object")
	if err := nodes[0].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !nodes[8+i].Locate(guid, nil).Found {
			t.Fatal("warmup locate failed")
		}
	}
	if m.CachedMappings() == 0 {
		t.Fatal("no cached mappings to expire")
	}
	nodes[0].Unpublish(guid, nil) // stop the refresh re-validating the hint path
	for i := int64(0); i <= m.Config().PointerTTL; i++ {
		now := m.Net().Tick()
		for _, n := range m.Nodes() {
			n.expirePointers(now)
		}
	}
	if got := m.CachedMappings(); got != 0 {
		t.Fatalf("%d cached mappings survived the TTL", got)
	}
}

// TestLocateCacheLRUBound: the per-node cache never exceeds its capacity and
// evicts least-recently-used mappings first.
func TestLocateCacheLRUBound(t *testing.T) {
	c := newLocateCache(3, 100)
	// Fill beyond capacity.
	for i := 0; i < 5; i++ {
		c.put(testSpec.Hash(fmt.Sprintf("g%d", i)), testSpec.Hash("server"), netsim.Addr(i), 0)
		if c.len() > 3 {
			t.Fatalf("cache grew to %d entries, cap 3", c.len())
		}
	}
	// g0 and g1 were evicted; g2..g4 remain.
	if _, ok := c.lookup(testSpec.Hash("g0"), 0); ok {
		t.Error("LRU entry g0 not evicted")
	}
	if _, ok := c.lookup(testSpec.Hash("g4"), 0); !ok {
		t.Error("recent entry g4 missing")
	}
	// Touch g2 to make it most-recent, insert a new one: g3 must be evicted.
	if _, ok := c.lookup(testSpec.Hash("g2"), 0); !ok {
		t.Fatal("entry g2 missing")
	}
	c.put(testSpec.Hash("g5"), testSpec.Hash("server"), netsim.Addr(5), 0)
	if _, ok := c.lookup(testSpec.Hash("g2"), 0); !ok {
		t.Error("recently-touched g2 evicted instead of LRU g3")
	}
	if _, ok := c.lookup(testSpec.Hash("g3"), 0); ok {
		t.Error("LRU g3 not evicted")
	}
	// Expiry inside lookup.
	if _, ok := c.lookup(testSpec.Hash("g5"), 100); ok {
		t.Error("expired entry served")
	}
}

// TestServeQueryPurgesDeadReplica: a pointer to a crashed, unreplicated
// server is removed from the serving node's store on the first failed
// probe, so later queries stop burning messages on the corpse.
func TestServeQueryPurgesDeadReplica(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 46)
	guid := testSpec.Hash("orphaned-object")
	server := nodes[7]
	if err := server.Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	var client *Node
	for _, n := range nodes {
		if !n.id.Equal(server.id) {
			client = n
			break
		}
	}
	before := client.Locate(guid, nil)
	if !before.Found {
		t.Fatal("object not locatable before the crash")
	}
	m.Fail(server)

	var c1 netsim.Cost
	res := client.Locate(guid, &c1)
	if res.Found {
		t.Fatalf("located a dead, unreplicated object at %v", res.Server)
	}
	if res.Exhausted {
		t.Error("a genuine miss must not report Exhausted")
	}
	// The walk purges the records it touched, so an identical second query
	// must not probe the corpse again — it costs no more than the first.
	var c2 netsim.Cost
	_ = client.Locate(guid, &c2)
	if c2.Messages() > c1.Messages() {
		t.Errorf("second miss cost %d messages, first cost %d — stale pointers were not purged",
			c2.Messages(), c1.Messages())
	}
}

// TestConcurrentLocatePublishUnpublishExpiry drives the serving layer from
// many goroutines under -race: queries for a stable object must always
// succeed and must never name a server that is not a current publisher of
// the object they asked for.
func TestConcurrentLocatePublishUnpublishExpiry(t *testing.T) {
	m, nodes := buildMesh(t, 48, cacheConfig(), 47)
	stable := testSpec.Hash("stable-object")
	churny := testSpec.Hash("churny-object")
	if err := nodes[2].Publish(stable, nil); err != nil {
		t.Fatal(err)
	}
	if err := nodes[3].Publish(stable, nil); err != nil {
		t.Fatal(err)
	}

	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan string, 256)

	// Churner: one replica of churny flaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := nodes[9].Publish(churny, nil); err != nil {
				errs <- fmt.Sprintf("publish: %v", err)
				return
			}
			nodes[9].Unpublish(churny, nil)
		}
	}()
	// Maintenance: epochs tick, pointers and cache entries expire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			m.RunMaintenanceEpoch(nil)
		}
	}()
	// Queriers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := nodes[(w*11+i)%len(nodes)]
				if res := c.Locate(stable, nil); !res.Found {
					errs <- fmt.Sprintf("stable object lost (worker %d iter %d)", w, i)
					return
				}
				// churny may or may not be found; if found, the server must
				// have vouched for it at serve time (serveQuery/serveFromCache
				// check `published` under the server's lock), so a result
				// naming anyone but the one flapping replica is a bug.
				if res := c.Locate(churny, nil); res.Found && !res.Server.Equal(nodes[9].id) {
					errs <- fmt.Sprintf("churny object served by impostor %v", res.Server)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
