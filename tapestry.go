// Package tapestry is a Go implementation of Tapestry — the
// location-independent routing infrastructure of Hildrum, Kubiatowicz, Rao
// and Zhao, "Distributed Object Location in a Dynamic Network" (SPAA 2002) —
// together with the substrates and baselines needed to reproduce the paper's
// evaluation.
//
// The facade wraps the unified overlay layer (internal/overlay) behind a
// small API: create a Network over a metric space, Join nodes, Publish and
// Locate objects by name, and churn membership with Leave/Fail. Every
// operation returns exact cost accounting (messages, application-level hops,
// metric distance traveled) from the underlying network simulator.
//
//	space := tapestry.RingSpace(4096)
//	net, _ := tapestry.New(space, tapestry.Defaults())
//	nodes, _ := net.Grow(1024)
//	nodes[0].Publish("my-object")
//	res, cost := nodes[42].Locate("my-object")
//
// New always builds Tapestry itself. NewProtocol returns the same
// Network/Node surface backed by any of the paper's comparison systems —
// Chord, Pastry, CAN or the centralized directory — so library users pick a
// protocol the way they pick a metric space. Operations a protocol has no
// honest implementation of return an error matching ErrUnsupported (check
// with errors.Is); they never panic and never fake success.
package tapestry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
)

// Space is a finite metric space; overlay nodes live at its points and every
// message is charged the metric distance between its endpoints.
type Space = metric.Space

// RingSpace returns a 1-D cycle metric on n points (expansion constant 2).
func RingSpace(n int) Space { return metric.NewRing(n) }

// TorusSpace returns an s×s wraparound-L1 lattice (expansion ≲ 4).
func TorusSpace(side int) Space { return metric.NewTorus2D(side) }

// CloudSpace returns n uniform random points on the unit 2-torus.
func CloudSpace(n int, seed int64) Space {
	return metric.NewUniformCloud(n, rand.New(rand.NewSource(seed)))
}

// RandomGraphSpace returns the shortest-path metric of a connected random
// graph — generally NOT growth-restricted (see the Section 7 scheme).
func RandomGraphSpace(n, degree int, seed int64) Space {
	return metric.NewRandomGraph(n, degree, 10, rand.New(rand.NewSource(seed)))
}

// TransitStubSpace returns the Zegura-style Internet model of Section 6.2,
// with stub-region labels that enable the locality optimization.
func TransitStubSpace(seed int64) Space {
	return metric.NewTransitStub(metric.DefaultTransitStub(), rand.New(rand.NewSource(seed)))
}

// ScaledTransitStubSpace returns a transit-stub space with at least the
// given number of points. Above metric.DenseLimit points the space is backed
// by the on-demand shortest-path representation (adjacency lists plus a
// bounded per-source row cache) instead of an n×n matrix, so substrates of
// 50k–100k points fit in hundreds of MB rather than tens of GB.
func ScaledTransitStubSpace(points int, seed int64) Space {
	return metric.NewTransitStub(metric.ScaledTransitStub(points), rand.New(rand.NewSource(seed)))
}

// Protocol selects the overlay system backing a Network.
type Protocol int

const (
	// Tapestry is the paper's own protocol: a DOLR with routing locality,
	// in-network object pointers, soft-state maintenance and the serving
	// layer. The full facade surface is available.
	Tapestry Protocol = iota
	// Chord is the DHT baseline [Stoica et al., SIGCOMM'01]: O(log n) hops
	// and state, no locality. Supports join, leave, fail and maintenance
	// (ring re-formation); no unpublish, multicast or locality queries.
	Chord
	// Pastry is the prefix-routing baseline [Rowstron & Druschel,
	// Middleware'01] built statically with proximity neighbor selection.
	// Static snapshot: publish and locate only.
	Pastry
	// CAN is the coordinate-space baseline [Ratnasamy et al., SIGCOMM'01].
	// Supports dynamic joins (zone splits); leave and fail are honestly
	// declined (the one-zone-per-node model cannot merge zones).
	CAN
	// Directory is the centralized strawman the paper opens with: clients
	// join, leave and fail freely, the single server answers everything.
	Directory
)

// String returns the registry name of the protocol.
func (p Protocol) String() string {
	switch p {
	case Tapestry:
		return "tapestry"
	case Chord:
		return "chord"
	case Pastry:
		return "pastry"
	case CAN:
		return "can"
	case Directory:
		return "directory"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// ErrUnsupported is matched (via errors.Is) by every error returned from an
// operation the backing protocol declines — e.g. Leave on a CAN-backed
// Network, or Multicast on anything but Tapestry.
var ErrUnsupported = overlay.ErrUnsupported

// Transport selects the node-to-node message backend of a Tapestry-backed
// Network (see the README "Wire format & transports" section). Non-Tapestry
// protocols ignore it.
type Transport int

const (
	// TransportAuto consults the TAPESTRY_TRANSPORT environment variable
	// (direct | loopback | tcp) and falls back to TransportDirect.
	TransportAuto Transport = Transport(core.TransportAuto)
	// TransportDirect delivers messages as in-process calls — the default,
	// byte-identical to builds without the transport seam.
	TransportDirect Transport = Transport(core.TransportDirect)
	// TransportLoopback round-trips every message through the wire codec
	// before the peer sees it, with identical simulated-cost accounting.
	TransportLoopback Transport = Transport(core.TransportLoopback)
	// TransportTCP additionally carries every message over a real localhost
	// socket. Incompatible with Config.EventDriven.
	TransportTCP Transport = Transport(core.TransportTCP)
)

// String returns the flag spelling of the transport.
func (t Transport) String() string { return core.TransportKind(t).String() }

// ParseTransport maps a flag/environment spelling ("direct", "loopback",
// "tcp", or ""/"auto") onto a Transport.
func ParseTransport(s string) (Transport, error) {
	k, err := core.ParseTransport(s)
	return Transport(k), err
}

// Cost is the expense ledger of one operation: messages, application-level
// hops, and total metric distance.
type Cost struct {
	Messages int
	Hops     int
	Distance float64
}

func costOf(c netsim.Cost) Cost {
	m, h, d := c.Snapshot()
	return Cost{Messages: m, Hops: h, Distance: d}
}

// Config shapes a Tapestry network. The zero value is not valid; start from
// Defaults().
type Config struct {
	// Base and Digits shape the identifier space (radix and length).
	Base, Digits int
	// R is the neighbor-set capacity (primary + backups); >= 2.
	R int
	// K is the nearest-neighbor list width; 0 = auto (O(log n)).
	K int
	// RootSetSize is the number of salted roots per object (fault tolerance).
	RootSetSize int
	// Replicas is the object replication factor k: each Publish places the
	// object on the publishing node plus the k-1 closest live peers, selected
	// by the nearest-neighbor engine with locality-aware region spread.
	// 0 or 1 places a single copy (today's behavior, bit-identical).
	Replicas int
	// PRRRouting selects the distributed PRR-like surrogate variant instead
	// of Tapestry-native next-filled-digit routing.
	PRRRouting bool
	// PointerTTL is the soft-state object-pointer lifetime in maintenance
	// epochs; cached location mappings (LocateCacheCap) expire with it.
	PointerTTL int
	// LocateCacheCap bounds the per-node LRU of cached location mappings
	// populated on the return path of successful locates — the hot-object
	// serving layer. 0 (the default) disables it; behavior is then
	// bit-identical to builds without the cache.
	LocateCacheCap int
	// Seed drives all randomized choices (IDs, root selection).
	Seed int64
	// StaticBuild selects the oracle static construction for the initial
	// bulk Grow on an empty Tapestry overlay (exact R-closest tables from
	// global knowledge, one build worker per CPU) instead of sequential
	// dynamic insertion. Later Grow/AddNode calls still insert
	// dynamically.
	StaticBuild bool
	// Transport selects the message backend of a Tapestry-backed network:
	// in-process direct calls (the default), a wire-codec loopback, or real
	// TCP sockets. TCP is incompatible with EventDriven. Call Network.Close
	// when done with a TCP-backed network.
	Transport Transport
	// EventDriven selects the discrete-event virtual-time execution backend:
	// operations scheduled with Network.Schedule run under a deterministic
	// event loop in which every message takes its metric distance in virtual
	// time. Operations invoked outside Schedule/RunEvents keep direct-call
	// semantics. See the README "Execution model" section.
	EventDriven bool
	// LinkLossRate and LinkDupRate inject seeded link faults from creation:
	// each message is independently dropped (the sender learns only by
	// timeout) or delivered twice with these probabilities. Both zero (the
	// default) keeps the network's behavior bit-identical to builds without
	// fault injection; rates must lie in [0,1] with their sum at most 1.
	// The draw stream derives from Seed, so runs replay exactly. See also
	// Network.SetLinkFaults for mid-run reconfiguration.
	LinkLossRate float64
	LinkDupRate  float64
}

// Defaults returns the deployed-Tapestry configuration: hexadecimal digits,
// R=3 (primary + two backups), single root, TTL 3 epochs.
func Defaults() Config {
	return Config{Base: 16, Digits: 8, R: 3, RootSetSize: 1, PointerTTL: 3, Seed: 1}
}

func (c Config) toCore() core.Config {
	cc := core.DefaultConfig()
	cc.Spec = ids.Spec{Base: c.Base, Digits: c.Digits}
	cc.R = c.R
	cc.K = c.K
	cc.RootSetSize = c.RootSetSize
	cc.Replicas = c.Replicas
	if c.PRRRouting {
		cc.Surrogate = core.SchemePRRLike
	}
	cc.PointerTTL = int64(c.PointerTTL)
	cc.LocateCacheCap = c.LocateCacheCap
	cc.Seed = c.Seed
	cc.Transport = core.TransportKind(c.Transport)
	return cc
}

// toOverlay maps the public configuration onto the overlay builder's.
func (c Config) toOverlay(p Protocol) overlay.Config {
	oc := overlay.Config{
		Spec:   ids.Spec{Base: c.Base, Digits: c.Digits},
		Seed:   c.Seed,
		Static: c.StaticBuild,
	}
	if p == Tapestry {
		cc := c.toCore()
		oc.Core = &cc
	}
	return oc
}

// Network is one overlay instance over a simulated metric space, backed by
// the protocol it was created with.
type Network struct {
	kind  Protocol
	proto overlay.Protocol
	sim   *netsim.Network
	seed  int64 // fault-injection draw stream (see SetLinkFaults)

	mu   sync.Mutex
	rng  *rand.Rand
	free []int // shuffled free-address stack (see freeAddr)
}

// New creates an empty Tapestry overlay over the space.
func New(space Space, cfg Config) (*Network, error) {
	return NewProtocol(space, Tapestry, cfg)
}

// NewProtocol creates an empty overlay over the space, backed by any of the
// five location systems. The returned Network exposes the same surface for
// every protocol; operations outside the protocol's capabilities return an
// error matching ErrUnsupported (methods without an error return document
// their degraded behavior).
func NewProtocol(space Space, p Protocol, cfg Config) (*Network, error) {
	b, err := overlay.Lookup(p.String())
	if err != nil {
		return nil, err
	}
	sim := netsim.New(space)
	if cfg.EventDriven {
		sim.AttachEngine(netsim.NewEngine(cfg.Seed))
	}
	if cfg.LinkLossRate != 0 || cfg.LinkDupRate != 0 {
		if err := validFaultRates(cfg.LinkLossRate, cfg.LinkDupRate); err != nil {
			return nil, err
		}
		sim.SetLinkFaults(cfg.LinkLossRate, cfg.LinkDupRate, cfg.Seed)
	}
	proto, err := b.New(sim, cfg.toOverlay(p))
	if err != nil {
		return nil, err
	}
	nw := &Network{
		kind:  p,
		proto: proto,
		sim:   sim,
		seed:  cfg.Seed,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
	}
	return nw, nil
}

// coreMesh returns the Tapestry mesh behind the extended surface (sweep,
// audits, transport teardown), nil for every other protocol. It is resolved
// at use, never cached: a StaticBuild network replaces the adapter's mesh
// during Build, and a handle taken at construction would keep operating on
// the empty mesh it discarded.
func (nw *Network) coreMesh() *core.Mesh {
	m, _ := overlay.CoreMesh(nw.proto)
	return m
}

// Protocol reports which overlay system backs this network.
func (nw *Network) Protocol() Protocol { return nw.kind }

// Close releases resources held by the message transport — the TCP backend's
// listener and connection pool; the in-process backends hold none, so Close
// is then a cheap no-op. The Network must not be used afterwards.
func (nw *Network) Close() error {
	if m := nw.coreMesh(); m != nil {
		return m.Close()
	}
	return nil
}

// Caps renders the backing protocol's capability set as a comma-separated
// list (e.g. "join,leave,fail,unpublish,maintain,locality,cache,replication";
// a protocol with no dynamic capabilities reports "static"). Programs should
// prefer attempting an operation and checking errors.Is(err, ErrUnsupported).
func (nw *Network) Caps() string { return nw.proto.Caps().String() }

// Node is one overlay participant.
type Node struct {
	nw    *Network
	h     overlay.Handle
	inner *core.Node // non-nil only on Tapestry-backed networks
}

func (nw *Network) wrap(h overlay.Handle) *Node {
	n := &Node{nw: nw, h: h}
	n.inner, _ = overlay.CoreNode(h)
	return n
}

// ID returns the node's identifier rendered as a digit string (or the
// backing protocol's identifier rendering).
func (n *Node) ID() string { return n.h.Label() }

// Addr returns the node's location (point index in the metric space).
func (n *Node) Addr() int { return int(n.h.Addr()) }

// Size returns the current number of overlay members.
func (nw *Network) Size() int { return len(nw.proto.Handles()) }

// Nodes returns all current members.
func (nw *Network) Nodes() []*Node {
	hs := nw.proto.Handles()
	out := make([]*Node, len(hs))
	for i, h := range hs {
		out[i] = nw.wrap(h)
	}
	return out
}

// TotalMessages returns the network-wide message count since creation.
func (nw *Network) TotalMessages() int64 { return nw.sim.TotalMessages() }

// validFaultRates rejects rates outside [0,1] or summing past 1 (NaN
// included) before they reach the simulator, which treats them as a
// programming error.
func validFaultRates(loss, dup float64) error {
	ok := func(r float64) bool { return r >= 0 && r <= 1 }
	if !ok(loss) || !ok(dup) || !(loss+dup <= 1) {
		return fmt.Errorf("tapestry: invalid link fault rates loss=%v dup=%v (want [0,1], sum <= 1)", loss, dup)
	}
	return nil
}

// SetLinkFaults reconfigures seeded link-fault injection mid-run: each
// subsequent message is independently dropped with probability loss (the
// sender learns only by timeout) or delivered twice with probability dup.
// Zero rates restore fault-free delivery; the injected-fault tallies appear
// in Stats. The draw stream derives from the network's seed, so identically
// seeded runs replay exactly.
func (nw *Network) SetLinkFaults(loss, dup float64) error {
	if err := validFaultRates(loss, dup); err != nil {
		return err
	}
	nw.sim.SetLinkFaults(loss, dup, nw.seed)
	return nil
}

// ClearFaults removes all injected link faults and any partition mask,
// restoring fault-free delivery.
func (nw *Network) ClearFaults() { nw.sim.ClearFaults() }

// ErrNotEventDriven is returned by the virtual-time surface (Schedule,
// RunEvents) on a network built without Config.EventDriven.
var ErrNotEventDriven = errors.New("tapestry: network is not event-driven (set Config.EventDriven)")

// Schedule registers fn to start as an operation at virtual time `at` on the
// event-driven backend. fn runs when RunEvents drains the queue; overlay
// calls it makes (Locate, Publish, Leave, ...) then park at every simulated
// message, so scheduled operations genuinely interleave in virtual time.
func (nw *Network) Schedule(at float64, fn func()) error {
	e := nw.sim.Engine()
	if e == nil {
		return ErrNotEventDriven
	}
	e.At(at, fn)
	return nil
}

// RunEvents drains the scheduled-event queue deterministically, advancing
// the virtual clock; it returns once every scheduled operation has finished.
// It may be called repeatedly as more work is scheduled (the clock keeps
// rising). Do not invoke overlay operations from other goroutines while
// RunEvents is draining.
func (nw *Network) RunEvents() error {
	e := nw.sim.Engine()
	if e == nil {
		return ErrNotEventDriven
	}
	e.Run()
	return nil
}

// VirtualNow returns the event backend's virtual clock (0 on direct-call
// networks, where no virtual time ever passes).
func (nw *Network) VirtualNow() float64 {
	if e := nw.sim.Engine(); e != nil {
		return e.Now()
	}
	return 0
}

// RegionOf returns the locality region (stub domain) of a point in the
// metric space, or -1 when the space has no region structure (only
// transit-stub spaces label regions; transit routers are -1 too) or the
// point lies outside the space.
func (nw *Network) RegionOf(addr int) int {
	if r := metric.Regions(nw.sim.Space()); addr >= 0 && addr < len(r) {
		return r[addr]
	}
	return -1
}

// AddNode inserts a node at the given point: the first call bootstraps the
// overlay, later calls run the protocol's dynamic insertion through a
// random gateway. It returns the node and the insertion cost. Protocols
// without dynamic insertion (Pastry) decline with ErrUnsupported — use one
// bulk Grow call instead. A point outside the metric space is an error.
func (nw *Network) AddNode(addr int) (*Node, Cost, error) {
	if addr < 0 || addr >= nw.sim.Size() {
		return nil, Cost{}, fmt.Errorf("tapestry: point %d outside the %d-point metric space", addr, nw.sim.Size())
	}
	h, cost, err := nw.proto.Join(netsim.Addr(addr))
	if err != nil {
		return nil, costOf(cost), err
	}
	return nw.wrap(h), costOf(cost), nil
}

// Grow adds count nodes at distinct random free points and returns them. On
// an empty overlay the whole batch is built in one pass (the only way to
// populate protocols without dynamic insertion); later calls insert
// dynamically one by one. A negative count is an error.
func (nw *Network) Grow(count int) ([]*Node, error) {
	if count < 0 {
		return nil, fmt.Errorf("tapestry: cannot grow by %d nodes", count)
	}
	if nw.Size() == 0 {
		addrs, err := nw.freeAddrs(count)
		if err != nil {
			return nil, err
		}
		hs, _, err := nw.proto.Build(addrs)
		if err != nil {
			return nil, err
		}
		out := make([]*Node, len(hs))
		for i, h := range hs {
			out[i] = nw.wrap(h)
		}
		return out, nil
	}
	out := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		addr, err := nw.freeAddr()
		if err != nil {
			return out, err
		}
		n, _, err := nw.AddNode(addr)
		if err != nil {
			return out, err
		}
		out = append(out, n)
	}
	return out, nil
}

// isFreeLocked reports whether a point hosts no member (the directory's
// server also occupies its point). Callers hold nw.mu.
func (nw *Network) isFreeLocked(a int) bool {
	return !nw.sim.Alive(netsim.Addr(a))
}

// freeAddr allocates one random free point. The allocator is a shuffled
// stack of candidate addresses: each call pops until it hits a still-free
// point, and the stack is rebuilt (reshuffled over the currently free set)
// only when exhausted — so a full overlay construction costs O(size) total
// instead of the O(size) per call a linear probe pays on a dense space
// (quadratic growth; BENCH_micro.json's FreeAddr row).
func (nw *Network) freeAddr() (int, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.freeAddrLocked()
}

func (nw *Network) freeAddrLocked() (int, error) {
	for pass := 0; pass < 2; pass++ {
		for len(nw.free) > 0 {
			a := nw.free[len(nw.free)-1]
			nw.free = nw.free[:len(nw.free)-1]
			if nw.isFreeLocked(a) {
				return a, nil
			}
		}
		// Rebuild over the points currently free — departures (Leave/Fail)
		// may have freed addresses already consumed from the last stack.
		for a := 0; a < nw.sim.Size(); a++ {
			if nw.isFreeLocked(a) {
				nw.free = append(nw.free, a)
			}
		}
		nw.rng.Shuffle(len(nw.free), func(i, j int) {
			nw.free[i], nw.free[j] = nw.free[j], nw.free[i]
		})
	}
	return 0, errors.New("tapestry: metric space is full")
}

// freeAddrs allocates count distinct free points for a bulk build. The
// pending picks are not yet attached to the network, so a mid-batch stack
// rebuild must not hand them out again.
func (nw *Network) freeAddrs(count int) ([]netsim.Addr, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	pending := make(map[int]bool, count)
	out := make([]netsim.Addr, 0, count)
	for len(out) < count {
		a, err := nw.freeAddrLocked()
		if err != nil {
			return nil, err
		}
		if pending[a] {
			// The stack was rebuilt mid-batch and re-listed a pending pick;
			// if every remaining free point is pending, the space is full.
			if len(pending) >= nw.spaceFreeLocked() {
				return nil, errors.New("tapestry: metric space is full")
			}
			continue
		}
		pending[a] = true
		out = append(out, netsim.Addr(a))
	}
	return out, nil
}

// spaceFreeLocked counts currently free points. Callers hold nw.mu.
func (nw *Network) spaceFreeLocked() int {
	free := 0
	for a := 0; a < nw.sim.Size(); a++ {
		if nw.isFreeLocked(a) {
			free++
		}
	}
	return free
}

// Publish announces that this node stores a replica of the named object.
func (n *Node) Publish(name string) (Cost, error) {
	c, err := n.nw.proto.Publish(n.h, name)
	return costOf(c), err
}

// PublishLocal additionally publishes a stub-local branch (Section 6.3); on
// metrics without region structure it behaves like Publish. Protocols
// without locality structure (everything but Tapestry) decline with
// ErrUnsupported.
func (n *Node) PublishLocal(name string) (Cost, error) {
	if n.inner == nil {
		return Cost{}, fmt.Errorf("tapestry: %s: %w", n.nw.kind, ErrUnsupported)
	}
	var c netsim.Cost
	err := n.inner.PublishLocal(n.nw.guid(name), &c)
	return costOf(c), err
}

// Unpublish withdraws this node's replica of the named object. The
// signature predates protocol selection and carries no error, so failures
// are reported through the Cost: a capability refusal (Chord, Pastry, CAN —
// the soft state simply persists) returns a zero Cost, and a genuine
// failure (e.g. a withdrawal RPC from an already-failed directory client)
// returns the cost of the failed attempt with the registration left in
// place.
func (n *Node) Unpublish(name string) Cost {
	c, _ := n.nw.proto.Unpublish(n.h, name)
	return costOf(c)
}

// UnpublishChecked is Unpublish with the error surfaced: a capability
// refusal matches ErrUnsupported, and genuine failures (e.g. a withdrawal
// RPC from an already-failed directory client) report what went wrong
// instead of masquerading as success.
func (n *Node) UnpublishChecked(name string) (Cost, error) {
	c, err := n.nw.proto.Unpublish(n.h, name)
	return costOf(c), err
}

// Result reports an object location.
type Result struct {
	Found      bool
	ServerID   string // the replica's node identifier
	ServerAddr int    // the replica's location
	Hops       int
	FromCache  bool // answered from a cached location mapping (serving layer)
}

func resultOf(r overlay.Result) Result {
	return Result{Found: r.Found, ServerID: r.ServerID, ServerAddr: int(r.Server),
		Hops: r.Hops, FromCache: r.FromCache}
}

// Locate routes a query for the named object toward its root, stopping at
// the first object pointer and proceeding to the closest replica (or the
// backing protocol's equivalent lookup).
func (n *Node) Locate(name string) (Result, Cost) {
	res, c := n.nw.proto.Locate(n.h, name)
	return resultOf(res), costOf(c)
}

// LocateLocal is the two-phase Section 6.3 query: stub-restricted first,
// wide-area on a miss. The bool reports whether the query stayed local. On
// protocols without locality structure it behaves exactly like Locate (and
// never reports local).
func (n *Node) LocateLocal(name string) (Result, Cost, bool) {
	if n.inner == nil {
		res, cost := n.Locate(name)
		return res, cost, false
	}
	var c netsim.Cost
	res, local := n.inner.LocateLocal(n.nw.guid(name), &c)
	return Result{Found: res.Found, ServerID: res.Server.String(),
		ServerAddr: int(res.ServerAddr), Hops: res.Hops,
		FromCache: res.FromCache}, costOf(c), local
}

// Multicast contacts every overlay node whose identifier shares the first
// prefixLen digits of this node's ID (acknowledged multicast, Section 4.1),
// invoking fn with each reached node's ID. It returns the number of nodes
// reached; the call returns only after every acknowledgment is in. Only
// Tapestry structures its membership by prefix; every other protocol
// declines with ErrUnsupported.
func (n *Node) Multicast(prefixLen int, fn func(nodeID string)) (int, Cost, error) {
	if n.inner == nil {
		return 0, Cost{}, fmt.Errorf("tapestry: %s: %w", n.nw.kind, ErrUnsupported)
	}
	var c netsim.Cost
	var wrapped func(*core.Node)
	if fn != nil {
		var mu sync.Mutex
		wrapped = func(x *core.Node) {
			mu.Lock()
			defer mu.Unlock()
			fn(x.ID().String())
		}
	}
	reached, err := n.inner.AcknowledgedMulticast(n.inner.ID().Prefix(prefixLen), wrapped, &c)
	return len(reached), costOf(c), err
}

// Leave removes the node gracefully (two-phase voluntary delete, Section
// 5.1): neighbors repair their tables and objects remain available.
// Protocols without graceful departure (Pastry, CAN) decline with
// ErrUnsupported.
func (n *Node) Leave() (Cost, error) {
	c, err := n.nw.proto.Leave(n.h)
	return costOf(c), err
}

// Fail kills the node without notice (Section 5.2). The overlay discovers
// the corpse lazily; objects rooted there stay unavailable until the next
// maintenance epoch republishes them. Protocols that cannot survive
// involuntary failure (Pastry, CAN) decline: the node stays alive and the
// call is a no-op.
func (nw *Network) Fail(n *Node) {
	_ = nw.proto.Fail(n.h) // capability refusal: documented no-op here
}

// RunMaintenance advances one soft-state epoch: expired pointers vanish,
// every served object is republished (Tapestry), or the ring re-forms among
// survivors (Chord). Protocols without maintenance return a zero Cost.
func (nw *Network) RunMaintenance() Cost {
	c, err := nw.proto.Maintain()
	_ = err // capability refusal: documented no-op for this signature
	return costOf(c)
}

// SweepFailures makes every node probe its neighbors and repair dead links
// (the heartbeat pass of Section 6.5). The probes are coalesced mesh-wide:
// each distinct neighbor is probed once per sweep and the verdict shared
// among its holders. Returns the number of links removed; zero on protocols
// without link repair.
func (nw *Network) SweepFailures() int {
	m := nw.coreMesh()
	if m == nil {
		return 0
	}
	return m.SweepDeadAll(nil)
}

// guid hashes an object name into the identifier namespace (Tapestry only).
func (nw *Network) guid(name string) ids.ID { return nw.coreMesh().Spec().Hash(name) }

// CheckConsistency audits Property 1 (no false holes) and root uniqueness
// over sample keys, returning human-readable violations (empty = healthy).
// Only Tapestry defines these invariants; other protocols report nothing.
func (nw *Network) CheckConsistency() []string {
	m := nw.coreMesh()
	if m == nil {
		return nil
	}
	out := m.AuditProperty1()
	nw.mu.Lock()
	keys := []ids.ID{
		m.Spec().Random(nw.rng),
		m.Spec().Random(nw.rng),
		m.Spec().Random(nw.rng),
	}
	nw.mu.Unlock()
	return append(out, m.AuditUniqueRoots(keys)...)
}

// Stats summarises the overlay.
type Stats struct {
	Nodes          int
	TotalMessages  int64
	MeanTableLinks float64
	TotalPointers  int

	// Serving-layer counters; all zero when the locate cache is disabled.
	CachedMappings  int   // location mappings currently cached across the overlay
	LocateCacheHits int64 // queries answered from a cached mapping
	LocateCacheMiss int64 // queries that went all the way to a pointer (or failed)

	// Availability-tier knobs in effect; zero on protocols without the
	// replication capability.
	Roots    int // salted roots per object
	Replicas int // replica servers per publish

	// Fault-injection counters; all zero unless link faults or a partition
	// were configured (Config.LinkLossRate/LinkDupRate, SetLinkFaults).
	LinkLost       int64 // messages dropped by injected link loss
	LinkDuplicated int64 // messages delivered twice by injected duplication
	LinkBlocked    int64 // messages refused by a partition mask
}

// Stats returns a snapshot of overlay-wide statistics.
func (nw *Network) Stats() Stats {
	os := nw.proto.Stats()
	ns := nw.sim.Stats()
	return Stats{
		Nodes:           os.Nodes,
		TotalMessages:   os.TotalMessages,
		MeanTableLinks:  os.MeanTableEntries,
		TotalPointers:   os.TotalPointers,
		CachedMappings:  os.CachedMappings,
		LocateCacheHits: os.CacheHits,
		LocateCacheMiss: os.CacheMisses,
		Roots:           os.Roots,
		Replicas:        os.Replicas,
		LinkLost:        ns.Lost,
		LinkDuplicated:  ns.Duplicated,
		LinkBlocked:     ns.Blocked,
	}
}

// String renders the stats compactly; serving-layer counters appear only
// once the cache has seen traffic, and the availability knobs only when they
// differ from the single-root, single-copy default — so default output is
// unchanged.
func (s Stats) String() string {
	out := fmt.Sprintf("nodes=%d messages=%d links/node=%.1f pointers=%d",
		s.Nodes, s.TotalMessages, s.MeanTableLinks, s.TotalPointers)
	if s.LocateCacheHits+s.LocateCacheMiss > 0 {
		out += fmt.Sprintf(" cached=%d hit%%=%.1f", s.CachedMappings,
			100*float64(s.LocateCacheHits)/float64(s.LocateCacheHits+s.LocateCacheMiss))
	}
	if s.Roots > 1 || s.Replicas > 1 {
		out += fmt.Sprintf(" roots=%d replicas=%d", s.Roots, s.Replicas)
	}
	if s.LinkLost+s.LinkDuplicated+s.LinkBlocked > 0 {
		out += fmt.Sprintf(" lost=%d dup=%d blocked=%d",
			s.LinkLost, s.LinkDuplicated, s.LinkBlocked)
	}
	return out
}
