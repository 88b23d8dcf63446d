package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// Locate-path pointer caching (the serving layer).
//
// The paper's whole pitch (Section 2.2, Observation 1) is that queries are
// satisfied near the client: the locate path intersects the publish path
// early and stops at the first pointer. But for a popular object the nodes
// late on the publish path — the root and its last-hop neighbors — still see
// every query that starts far from the publish path, which under a Zipf
// workload recreates exactly the hotspot the centralized directory strawman
// is criticized for. The fix is classic DOLR soft state one level up: when a
// query succeeds, every node the query traversed may remember the answer
// (guid -> the replica served), piggybacked on the response path at no extra
// message cost. The next query for the same object is answered at the first
// hop that remembers it, long before the root.
//
// Consistency: a cache entry is a hint, never an authority. Use always
// verifies with the replica itself (the same final RPC an ordinary pointer
// hit pays, checking `published` under the server's lock), so a stale entry
// costs one wasted hop and is dropped on the spot — it can never serve a
// replica that no longer exists or no longer publishes the object. Entries
// are additionally epoch-stamped and expire alongside the soft-state pointer
// TTL, and Unpublish's path walk and the backward-delete sweep invalidate
// entries naming the withdrawing server at every node they visit.
//
// The cache is bounded per node (Config.LocateCacheCap, LRU eviction) and
// OFF by default: with LocateCacheCap == 0 no node allocates a cache, no
// counter is touched, and every experiment is bit-identical to the uncached
// build.

// cacheEntry is one cached location mapping plus its LRU links. Entries are
// intrusive list nodes so lookup/insert/evict are pointer moves without
// container allocations beyond the entry itself.
type cacheEntry struct {
	guid       ids.ID
	server     ids.ID
	serverAddr netsim.Addr
	epoch      int64 // deposit/refresh time, for TTL expiry

	prev, next *cacheEntry
}

// locateCache is a bounded LRU of location mappings. All methods require the
// owning node's mutex: the cache is touched only at hops that already hold
// n.mu briefly, so it adds no locking of its own.
type locateCache struct {
	cap int
	ttl int64
	m   map[ids.ID]*cacheEntry
	// head is most recently used, tail least; nil when empty.
	head, tail *cacheEntry
}

func newLocateCache(cap int, ttl int64) *locateCache {
	return &locateCache{cap: cap, ttl: ttl, m: make(map[ids.ID]*cacheEntry, cap)}
}

// lookup returns the cached mapping for guid if present and fresh, promoting
// it to most-recently-used. An expired entry is removed and reported as a
// miss.
func (c *locateCache) lookup(guid ids.ID, now int64) (cacheEntry, bool) {
	e := c.m[guid]
	if e == nil {
		return cacheEntry{}, false
	}
	if now-e.epoch >= c.ttl {
		c.unlink(e)
		delete(c.m, guid)
		return cacheEntry{}, false
	}
	c.touch(e)
	return *e, true
}

// put inserts or refreshes the mapping for guid, evicting the
// least-recently-used entry when the cache is full.
func (c *locateCache) put(guid, server ids.ID, serverAddr netsim.Addr, now int64) {
	if e := c.m[guid]; e != nil {
		e.server, e.serverAddr, e.epoch = server, serverAddr, now
		c.touch(e)
		return
	}
	if len(c.m) >= c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.guid)
	}
	e := &cacheEntry{guid: guid, server: server, serverAddr: serverAddr, epoch: now}
	c.m[guid] = e
	c.pushFront(e)
}

// invalidate drops the entry for guid. With a non-zero server the entry is
// dropped only if it names that server — an unpublish by one replica must
// not evict a hint pointing at another, still-valid replica.
func (c *locateCache) invalidate(guid, server ids.ID) {
	e := c.m[guid]
	if e == nil {
		return
	}
	if !server.IsZero() && !e.server.Equal(server) {
		return
	}
	c.unlink(e)
	delete(c.m, guid)
}

// expire drops every entry older than the TTL; called from the soft-state
// maintenance pass alongside pointer expiry.
func (c *locateCache) expire(now int64) {
	for e := c.tail; e != nil; {
		prev := e.prev
		if now-e.epoch >= c.ttl {
			c.unlink(e)
			delete(c.m, e.guid)
		}
		e = prev
	}
}

// len returns the number of cached mappings.
func (c *locateCache) len() int { return len(c.m) }

func (c *locateCache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *locateCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *locateCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// cacheInvalidate removes the (guid -> server) hint at n, if any. A zero
// server drops any entry for guid. Safe to call on cache-off meshes.
func (n *Node) cacheInvalidate(guid, server ids.ID) {
	if n.cache == nil {
		return
	}
	n.mu.Lock()
	n.cache.invalidate(guid, server)
	n.mu.Unlock()
}

// cacheDeposit records (guid -> server) at n. Population piggybacks on the
// response path of a successful locate, so it charges no messages.
func (n *Node) cacheDeposit(guid, server ids.ID, serverAddr netsim.Addr, now int64) {
	if n.cache == nil {
		return
	}
	n.mu.Lock()
	n.cache.put(guid, server, serverAddr, now)
	n.mu.Unlock()
}

// CacheSize returns the number of location mappings cached at this node.
func (n *Node) CacheSize() int {
	if n.cache == nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cache.len()
}

// LocateCacheStats returns the mesh-wide cache hit/miss counts: one
// observation per Locate on a cache-enabled mesh (hit = the query was
// answered from a cached mapping at some hop). Each node counts the queries
// it issued; this sums the members' counters and what departed members left
// behind. Exact once traffic has quiesced, like the network's counters.
func (m *Mesh) LocateCacheStats() (hits, misses int64) {
	hits, misses = m.departedHits.Load(), m.departedMisses.Load()
	for _, n := range m.Nodes() {
		hits += n.cacheHits.Load()
		misses += n.cacheMisses.Load()
	}
	return hits, misses
}

// CachedMappings returns the total number of cached location mappings across
// the overlay.
func (m *Mesh) CachedMappings() int {
	total := 0
	for _, n := range m.Nodes() {
		total += n.CacheSize()
	}
	return total
}
