// Package core implements the Tapestry overlay of Hildrum, Kubiatowicz, Rao
// and Zhao, "Distributed Object Location in a Dynamic Network": a
// location-independent routing infrastructure with routing locality that
// adapts to arriving and departing nodes.
//
// A Mesh is one overlay instance over a simulated network. Each Node owns a
// prefix routing table (Section 2.1), a bag of soft-state object pointers
// (Section 2.2), and participates in the dynamic-membership protocols:
// acknowledged multicast (Section 4.1), the incremental nearest-neighbor
// table construction (Section 3), insertion that keeps objects available
// (Sections 4.2–4.4), and voluntary/involuntary deletion (Section 5).
//
// Locking discipline: every node has a single mutex guarding its table,
// pointer store and state. No node method ever sends a network message while
// holding its own lock; handlers lock, copy what they need, unlock, then
// communicate. This keeps the genuinely concurrent tests (simultaneous
// insertion, churn) deadlock-free by construction.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/stats"
	"tapestry/internal/wire"
)

// Scheme selects the surrogate-routing variant of Section 2.3.
type Scheme int

const (
	// SchemeNative is Tapestry native routing: when the desired digit's
	// entry is missing, try the next filled entry at the same level,
	// wrapping around.
	SchemeNative Scheme = iota
	// SchemePRRLike is the distributed PRR-like variant: exact digits until
	// the first hole, then best-bit-match (ties to the numerically higher
	// digit), then always the numerically highest filled digit.
	SchemePRRLike
)

func (s Scheme) String() string {
	switch s {
	case SchemeNative:
		return "native"
	case SchemePRRLike:
		return "prr-like"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Config parameterises a Mesh.
type Config struct {
	// Spec shapes the identifier space. Base must exceed the square of the
	// metric's expansion constant for the Section 3 guarantees.
	Spec ids.Spec
	// R is the neighbor-set capacity (primary + secondaries); the deployed
	// Tapestry uses 3. Must be >= 2 so "am I the only α-node?" is locally
	// decidable (see route.Table.OnlyNodeWithPrefix).
	R int
	// K is the nearest-neighbor list width of Section 3 (Lemma 1's
	// O(log n)). Zero means auto: max(8, 3·⌈log₂ n⌉) evaluated per join
	// against the current live population.
	K int
	// RootSetSize is |R_ψ|, the number of salted roots per object
	// (Observation 2). Default 1.
	RootSetSize int
	// Replicas is the object replication factor k: PublishReplicated places
	// the object on the publishing node plus the k-1 closest live peers
	// found by the §4.2 nearest-neighbor engine. Default 1 (no extra
	// copies); plain Publish ignores it.
	Replicas int
	// Surrogate selects the localized routing variant.
	Surrogate Scheme
	// PointerTTL is the soft-state lifetime of an object pointer in epochs;
	// pointers older than PointerTTL epochs vanish unless republished. A
	// cached location mapping (LocateCacheCap) expires on the same clock.
	PointerTTL int64
	// LocateCacheCap bounds the per-node LRU of cached location mappings
	// (guid -> replica) populated on the return path of successful locates
	// (see cache.go). Zero — the default — disables the cache entirely: no
	// node allocates one and query behavior is bit-identical to builds
	// without the serving layer.
	LocateCacheCap int
	// Seed feeds the per-node root-selection streams used by queries (each
	// node derives a private SplitMix64 stream from Seed and its ID, so
	// concurrent Locate calls never serialize on a shared RNG).
	Seed int64
	// Transport selects the node-to-node message backend (transport.go). The
	// zero value TransportAuto consults TAPESTRY_TRANSPORT and falls back to
	// the in-memory direct path.
	Transport TransportKind
}

// DefaultConfig returns the configuration used throughout the paper-scale
// experiments.
func DefaultConfig() Config {
	return Config{
		Spec:        ids.DefaultSpec,
		R:           3,
		K:           0,
		RootSetSize: 1,
		Replicas:    1,
		Surrogate:   SchemeNative,
		PointerTTL:  3,
		Seed:        1,
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.Spec.Base == 0 && c.Spec.Digits == 0 {
		c.Spec = ids.DefaultSpec
	}
	if err := c.Spec.Validate(); err != nil {
		return c, err
	}
	if c.R == 0 {
		c.R = 3
	}
	if c.R < 2 {
		return c, errors.New("core: R must be >= 2 (primary plus at least one backup)")
	}
	if c.RootSetSize == 0 {
		c.RootSetSize = 1
	}
	if c.RootSetSize < 1 {
		return c, errors.New("core: RootSetSize must be >= 1")
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 1 {
		return c, errors.New("core: Replicas must be >= 1")
	}
	if c.PointerTTL == 0 {
		c.PointerTTL = 3
	}
	if c.PointerTTL < 1 {
		return c, errors.New("core: PointerTTL must be >= 1")
	}
	if c.K < 0 {
		return c, errors.New("core: K must be >= 0")
	}
	if c.LocateCacheCap < 0 {
		return c, errors.New("core: LocateCacheCap must be >= 0 (0 disables the cache)")
	}
	tk, err := resolveTransportKind(c.Transport)
	if err != nil {
		return c, err
	}
	c.Transport = tk
	return c, nil
}

// nodeState tracks a node's lifecycle.
type nodeState int32

const (
	stateInserting nodeState = iota // the zero value: where newNode's nodes start
	stateActive
	stateLeaving
	stateDead
)

// lifecycle holds a node's nodeState. Transitions happen under Node.mu, so
// code that holds the lock sees a stable value; the per-message liveness
// check (rpc, the TCP server) loads it without the lock — taking every
// target's mutex just to peek at one word was a lock acquisition per hop.
type lifecycle struct{ v atomic.Int32 }

func (l *lifecycle) load() nodeState   { return nodeState(l.v.Load()) }
func (l *lifecycle) store(s nodeState) { l.v.Store(int32(s)) }

// Node is one Tapestry participant.
type Node struct {
	mesh *Mesh
	id   ids.ID
	addr netsim.Addr

	// label is id rendered once, at construction: what a caller above core
	// is shown for this node, so no result renders it again.
	label string

	mu      sync.Mutex
	table   *route.Table
	objects ids.Table[*objState] // GUID -> pointer records (the pointer store, objects.go)
	free    *objState            // released states, linked through next, for the next deposit
	state   lifecycle            // written under mu, readable without it

	// published lists the GUIDs this node serves replicas of (it is a
	// storage server for them); used for republish and audits.
	published ids.Table[struct{}]

	// cache is the bounded LRU of location mappings for the serving layer
	// (cache.go); nil unless Config.LocateCacheCap > 0. Guarded by mu.
	cache *locateCache

	// rootSalt seeds this node's private root-selection stream; locateSeq
	// advances it one draw per Locate without any shared lock.
	rootSalt  uint64
	locateSeq atomic.Uint64

	// Serving-layer counters: one observation per Locate this node issued on
	// a cache-enabled mesh. Per node, so concurrent queries from different
	// clients share no counter line; Mesh.LocateCacheStats sums them.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Insertion-window state (Section 4.3): while inserting, queries for
	// unknown objects are bounced to the pre-insertion surrogate.
	psurrogate route.Entry
	alpha      ids.Prefix
}

// ID returns the node's identifier.
func (n *Node) ID() ids.ID { return n.id }

// Label returns the identifier's rendering, ID().String(), without building
// the string again.
func (n *Node) Label() string { return n.label }

// Addr returns the node's network address.
func (n *Node) Addr() netsim.Addr { return n.addr }

// Entry renders the node as a routing-table entry at distance 0 from itself;
// callers adjust Distance for their own vantage point.
func (n *Node) entryFor(viewer netsim.Addr) route.Entry {
	return route.Entry{ID: n.id, Addr: n.addr, Distance: n.mesh.net.Distance(viewer, n.addr)}
}

// idShards is the number of independent locks over the ID registry. 64 keeps
// shard contention negligible at 100k nodes while the array of mutexes stays
// a few cache lines.
const idShards = 64

// idShard is one lock-striped slice of the ID -> node registry. Keys are
// ids.ID values directly (a comparable single-string struct), so lookups
// never pay the String() formatting allocation the old map[string] did.
type idShard struct {
	mu sync.Mutex
	m  map[ids.ID]*Node
}

// idShardIndex hashes an ID to its registry shard (FNV-1a over the digits —
// no allocation, and IDs are short).
func idShardIndex(id ids.ID) int {
	h := uint64(14695981039346656037)
	for i := 0; i < id.Len(); i++ {
		h = (h ^ uint64(id.Digit(i))) * 1099511628211
	}
	return int(h % idShards)
}

// Mesh is one Tapestry overlay instance.
//
// The membership registry is built not to serialize 100k nodes on a global
// lock: the address -> node map is a flat slice of atomic pointers (NodeAt —
// the per-message hot path inside rpc — is one lock-free load), the ID ->
// node map is lock-striped across idShards mutexes, and the size is a
// maintained atomic counter.
type Mesh struct {
	cfg Config
	net *netsim.Network

	// regions caches the metric's locality labelling (stub domains) at
	// construction, so the per-hop region lookups of the Section 6.3 paths
	// are an index into a slice regardless of the metric representation.
	regions []int

	// byAddr[a] is the node hosted at address a, nil when vacant. Sized by
	// the network at construction; slots flip with CAS so duplicate-address
	// registration is detected without any lock.
	byAddr []atomic.Pointer[Node]
	byID   [idShards]idShard
	size   atomic.Int64

	// ordered is the membership in ascending ID order — what Nodes() hands
	// out. The first Nodes() call builds it from the shards (a bulk static
	// build never pays for it); from then on publish and unregister keep it
	// in order with a binary-search insert or delete, so a maintenance epoch
	// no longer re-collects and re-sorts the whole registry per pass.
	ordered struct {
		mu    sync.Mutex
		nodes []*Node
		valid bool
	}

	// departedHits and departedMisses keep the serving-layer counters of
	// nodes that left the registry (unregister folds a node's in), so
	// LocateCacheStats stays cumulative under churn. No query touches them.
	departedHits   atomic.Int64
	departedMisses atomic.Int64

	// nnScratchPool recycles the §4.2 search engine's candidate arenas
	// (nearest.go) across repairs, joins and refreshes mesh-wide.
	nnScratchPool sync.Pool

	// tr delivers every node-to-node message (transport.go); framePool
	// recycles the per-operation wire-message bundles the walk drivers fill.
	tr        Transport
	framePool sync.Pool

	// afterRelease, when set (tests only), sees each pointer-store state the
	// moment it has gone onto a free list, with the record window it held.
	afterRelease func(st *objState, window []pointerRec)
}

// getNNScratch hands out a clean search arena; putNNScratch recycles it.
func (m *Mesh) getNNScratch() *nnScratch {
	if sc, ok := m.nnScratchPool.Get().(*nnScratch); ok {
		return sc
	}
	return new(nnScratch)
}

func (m *Mesh) putNNScratch(sc *nnScratch) {
	sc.reset()
	m.nnScratchPool.Put(sc)
}

// NewMesh creates an empty overlay on the given network.
func NewMesh(net *netsim.Network, cfg Config) (*Mesh, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		cfg:     cfg,
		net:     net,
		regions: metric.Regions(net.Space()),
		byAddr:  make([]atomic.Pointer[Node], net.Size()),
	}
	for i := range m.byID {
		m.byID[i].m = make(map[ids.ID]*Node)
	}
	tr, err := newTransport(m, cfg.Transport)
	if err != nil {
		return nil, err
	}
	m.tr = tr
	return m, nil
}

// Transport returns the mesh's message transport.
func (m *Mesh) Transport() Transport { return m.tr }

// Close releases transport resources (the TCP backend's listener and
// connection pool). The mesh itself remains usable only with the in-memory
// backends; Close is idempotent.
func (m *Mesh) Close() error { return m.tr.Close() }

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Net returns the underlying simulated network.
func (m *Mesh) Net() *netsim.Network { return m.net }

// Spec returns the identifier spec.
func (m *Mesh) Spec() ids.Spec { return m.cfg.Spec }

// Bootstrap creates the first node of the overlay. It fails if the overlay
// already has members (use Join) or the address or ID is taken.
func (m *Mesh) Bootstrap(id ids.ID, addr netsim.Addr) (*Node, error) {
	if m.Size() != 0 {
		return nil, errors.New("core: mesh already bootstrapped; use Join")
	}
	n := m.newNode(id, addr)
	n.state.store(stateActive)
	if err := m.publish(n); err != nil {
		return nil, err
	}
	return n, nil
}

// newNode allocates a node that is NOT yet in the registry. Every field a
// concurrent reader may touch must be set before publish makes it visible.
func (m *Mesh) newNode(id ids.ID, addr netsim.Addr) *Node {
	label := id.String()
	n := &Node{
		mesh:     m,
		id:       id,
		addr:     addr,
		label:    label,
		table:    route.New(m.cfg.Spec, id, addr, m.cfg.R),
		rootSalt: uint64(stats.StreamSeed(m.cfg.Seed, label, 0)),
	}
	if m.cfg.LocateCacheCap > 0 {
		n.cache = newLocateCache(m.cfg.LocateCacheCap, m.cfg.PointerTTL)
	}
	return n
}

// publish inserts a fully-initialized node into the registry, enforcing ID
// and address uniqueness, and attaches its address to the network. The ID
// shard is claimed first and the address slot second: on an address clash
// the ID entry is rolled back, so a failed registration is never reachable
// through NodeAt (the path every message resolution takes); the transient
// NodeByID visibility only audits could observe is harmless.
func (m *Mesh) publish(n *Node) error {
	sh := &m.byID[idShardIndex(n.id)]
	sh.mu.Lock()
	if _, dup := sh.m[n.id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("core: node-ID %v already in use", n.id)
	}
	sh.m[n.id] = n
	sh.mu.Unlock()
	if !m.byAddr[n.addr].CompareAndSwap(nil, n) {
		sh.mu.Lock()
		delete(sh.m, n.id)
		sh.mu.Unlock()
		m.updateOrdered(n, false) // a concurrent Nodes() may have collected it
		return fmt.Errorf("core: address %d already hosts a node", n.addr)
	}
	m.size.Add(1)
	m.net.Attach(n.addr)
	m.updateOrdered(n, true)
	return nil
}

// updateOrdered applies one membership change to the ID-ordered list, if it
// has been built. Both directions tolerate a list that already reflects the
// change: a Nodes() rebuild racing the shard update may have seen it first.
func (m *Mesh) updateOrdered(n *Node, present bool) {
	o := &m.ordered
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.valid {
		return
	}
	i := sort.Search(len(o.nodes), func(i int) bool { return !o.nodes[i].id.Less(n.id) })
	has := i < len(o.nodes) && o.nodes[i] == n
	switch {
	case present && !has:
		o.nodes = append(o.nodes, nil)
		copy(o.nodes[i+1:], o.nodes[i:])
		o.nodes[i] = n
	case !present && has:
		o.nodes = append(o.nodes[:i], o.nodes[i+1:]...)
	}
}

// register validates uniqueness and creates an inserting node. The node's
// Figure 10 fields (α and the pre-insertion surrogate) are set before it
// becomes visible in the registry: a concurrent surrogate walk may reach the
// node the instant it is published, and must be able to bounce off it.
func (m *Mesh) register(id ids.ID, addr netsim.Addr, alpha ids.Prefix, psur route.Entry) (*Node, error) {
	n := m.newNode(id, addr)
	n.alpha = alpha
	n.psurrogate = psur
	if err := m.publish(n); err != nil {
		return nil, err
	}
	return n, nil
}

// unregister removes a departed node from the registry (idempotent).
func (m *Mesh) unregister(n *Node) {
	sh := &m.byID[idShardIndex(n.id)]
	sh.mu.Lock()
	if sh.m[n.id] == n {
		delete(sh.m, n.id)
	}
	sh.mu.Unlock()
	if m.byAddr[n.addr].CompareAndSwap(n, nil) {
		m.size.Add(-1)
		m.departedHits.Add(n.cacheHits.Load())
		m.departedMisses.Add(n.cacheMisses.Load())
	}
	m.updateOrdered(n, false)
}

// NodeAt returns the node hosted at addr, or nil. Lock-free: this is the
// target-resolution step of every simulated message.
func (m *Mesh) NodeAt(addr netsim.Addr) *Node {
	if addr < 0 || int(addr) >= len(m.byAddr) {
		return nil
	}
	return m.byAddr[addr].Load()
}

// NodeByID returns the registered node with the given ID, or nil.
func (m *Mesh) NodeByID(id ids.ID) *Node {
	sh := &m.byID[idShardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[id]
}

// Nodes returns a snapshot of all registered nodes (including currently
// inserting ones, excluding failed/departed ones) in ascending ID order, so
// churn and failure experiments that pick victims or probe clients from it
// are reproducible. The slice is the caller's own.
func (m *Mesh) Nodes() []*Node {
	o := &m.ordered
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.valid {
		o.nodes = o.nodes[:0]
		for i := range m.byID {
			sh := &m.byID[i]
			sh.mu.Lock()
			for _, n := range sh.m {
				o.nodes = append(o.nodes, n)
			}
			sh.mu.Unlock()
		}
		sort.Slice(o.nodes, func(i, j int) bool { return o.nodes[i].id.Less(o.nodes[j].id) })
		o.valid = true
	}
	out := make([]*Node, len(o.nodes))
	copy(out, o.nodes)
	return out
}

// Size returns the number of registered nodes (O(1): a maintained counter).
func (m *Mesh) Size() int {
	return int(m.size.Load())
}

// errDead distinguishes "destination's host is up but the overlay node is
// gone" — treated exactly like an unreachable host by callers. It reaches
// them wrapped in a *PeerError (transport.go), the one failure shape every
// backend produces — and is the cause a daemon's caller gets for a request
// the daemon refused, the one sentinel on both sides of the shared TCP stack.
var errDead = wire.ErrPeerGone

// rpc charges a request/response pair from caller to the entry's address and
// resolves the live target node. A stale entry (address re-used by a
// different ID, departed node, dead host) yields a *PeerError after charging
// the probe, matching the paper's model where failures are detected by
// timeout. This is the charging and resolving half of Mesh.invoke, on every
// transport; a Transport only delivers the message to the node returned.
func (m *Mesh) rpc(from netsim.Addr, to route.Entry, cost *netsim.Cost, hop bool) (*Node, error) {
	if err := m.net.Send(from, to.Addr, cost, hop); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	target := m.NodeAt(to.Addr)
	if target == nil || !target.id.Equal(to.ID) {
		return nil, &PeerError{To: to, Err: errDead}
	}
	if target.state.load() == stateDead {
		return nil, &PeerError{To: to, Err: errDead}
	}
	// Response leg.
	_ = m.net.Send(to.Addr, from, cost, false)
	return target, nil
}

// oneWay charges a single message and resolves the target (no response leg)
// for Mesh.oneWayMsg: the notifications that are fire-and-forget in the paper.
func (m *Mesh) oneWay(from netsim.Addr, to route.Entry, cost *netsim.Cost) (*Node, error) {
	if err := m.net.Send(from, to.Addr, cost, false); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	target := m.NodeAt(to.Addr)
	if target == nil || !target.id.Equal(to.ID) {
		return nil, &PeerError{To: to, Err: errDead}
	}
	return target, nil
}

// kList returns the effective nearest-neighbor list width for the current
// population (Section 3: k = O(log n)).
func (m *Mesh) kList() int {
	if m.cfg.K > 0 {
		return m.cfg.K
	}
	n := m.Size()
	k := 8
	for p := 1; p < n; p *= 2 {
		k += 3
	}
	return k
}

// addNeighborAndNotify inserts e into n's table at the given level under n's
// lock, then (outside the lock) registers the backpointer at e and retracts
// backpointers at any evicted nodes. It reports whether e was added.
func (n *Node) addNeighborAndNotify(level int, e route.Entry, cost *netsim.Cost) bool {
	if e.ID.Equal(n.id) {
		return false
	}
	n.mu.Lock()
	added, evicted := n.table.Add(level, e)
	n.mu.Unlock()
	n.notifyLinkChange(level, e, added, evicted, cost)
	return added
}

// notifyLinkChange is the messaging half of a table.Add at the given level,
// sent with n's lock released: register the backpointer at e if it went in,
// retract the backpointers at whatever it evicted.
func (n *Node) notifyLinkChange(level int, e route.Entry, added bool, evicted []route.Entry, cost *netsim.Cost) {
	if added {
		n.sendBackpointerAdd(level, e, cost)
	}
	for _, ev := range evicted {
		n.sendBackpointerRemove(level, ev, cost)
	}
}

func (n *Node) sendBackpointerAdd(level int, e route.Entry, cost *netsim.Cost) {
	f := n.mesh.getFrames()
	f.backAdd.Level = level
	f.backAdd.From = route.Entry{ID: n.id, Addr: n.addr, Distance: e.Distance}
	// A dead neighbor is ignored; the sweep will clean it up.
	_, _ = n.mesh.oneWayMsg(n.addr, e, &f.backAdd, cost)
	n.mesh.putFrames(f)
}

func (n *Node) sendBackpointerRemove(level int, e route.Entry, cost *netsim.Cost) {
	f := n.mesh.getFrames()
	f.backRemove.Level = level
	f.backRemove.ID = n.id
	_, _ = n.mesh.oneWayMsg(n.addr, e, &f.backRemove, cost)
	n.mesh.putFrames(f)
}

// appendNeighbors appends a copy of the node's forward links, self entries
// excluded, to dst in the table's stored order — ascending (level, digit,
// rank), the order ForEachNeighbor visits. A neighbor held at several levels
// appears once per level. The heartbeat sweeps and the §6.4 re-ordering probe
// in exactly this order, which is what makes their repair order — and with it
// eviction tie-breaks and message costs at every peer — deterministic.
func (n *Node) appendNeighbors(dst []route.Entry) []route.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.table.RangeView(0, n.table.Levels()) {
		if !e.ID.Equal(n.id) {
			dst = append(dst, e)
		}
	}
	return dst
}

// entryIn reports whether id occurs among ents (a linear scan: callers pass
// one node's links, a few dozen entries).
func entryIn(ents []route.Entry, id ids.ID) bool {
	for i := range ents {
		if ents[i].ID.Equal(id) {
			return true
		}
	}
	return false
}

// Table exposes the node's routing table for audits and experiments. The
// caller must treat it as read-only and must not retain it across
// membership changes; tests are the intended consumer.
func (n *Node) Table() *route.Table { return n.table }

// NeighborCount returns the number of routing-table links, taken under the
// node's lock so it is safe against concurrent membership changes (the
// Table() accessor is not).
func (n *Node) NeighborCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.table.NeighborCount()
}

// lockedView runs fn with the node's lock held; for audits only.
func (n *Node) lockedView(fn func(t *route.Table)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.table)
}
