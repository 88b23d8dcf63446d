// Package overlay defines the unified protocol interface the repository's
// five object-location systems — Tapestry (internal/core), Chord, Pastry,
// CAN and the centralized directory — are driven through. The paper's
// central claim is comparative (a DOLR with routing locality beats DHT-style
// and centralized location on stretch and load), so the baselines must be
// first-class: every experiment workload (static Table-1 sweeps, Poisson
// churn epochs, Zipf query storms) and the public facade run against any
// protocol through this one seam.
//
// The vocabulary is deliberately small: a Protocol is built over a
// netsim.Network, members are opaque Handles, every operation returns exact
// netsim.Cost accounting — by value: the ledger is the caller's own, on its
// stack — and a Caps bitmask lets a protocol honestly
// decline operations it has no sensible implementation of (CAN has no
// graceful leave, Pastry's proximity tables are built from global knowledge
// and cannot absorb dynamic joins, the directory has no soft-state epoch).
// Declined operations return a typed error matching ErrUnsupported — never
// a panic and never a silent no-op.
package overlay

import (
	"errors"
	"fmt"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// Caps is the capability set of a protocol: which optional operations it
// genuinely implements. Build, Publish and Locate are universal and have no
// capability bit.
type Caps uint32

const (
	// CapJoin: dynamic single-node insertion after the initial Build.
	CapJoin Caps = 1 << iota
	// CapLeave: graceful voluntary departure that preserves availability.
	CapLeave
	// CapFail: involuntary failure the protocol can later repair around.
	CapFail
	// CapUnpublish: withdrawing a previously published replica.
	CapUnpublish
	// CapMaintain: a periodic stabilization / soft-state maintenance pass.
	CapMaintain
	// CapLocality: locality-aware placement and queries (stub-local branches).
	CapLocality
	// CapCache: locate-path result caching (the hot-object serving layer).
	CapCache
	// CapReplication: the availability tier — salted multi-root publication,
	// k-replica placement and locate-triggered read-repair.
	CapReplication
)

// Has reports whether every capability in x is present.
func (c Caps) Has(x Caps) bool { return c&x == x }

// String renders the set as a stable comma-separated list — the capability
// matrix rendering used by experiments and docs.
func (c Caps) String() string {
	names := []struct {
		bit  Caps
		name string
	}{
		{CapJoin, "join"}, {CapLeave, "leave"}, {CapFail, "fail"},
		{CapUnpublish, "unpublish"}, {CapMaintain, "maintain"},
		{CapLocality, "locality"}, {CapCache, "cache"},
		{CapReplication, "replication"},
	}
	out := ""
	for _, n := range names {
		if c.Has(n.bit) {
			if out != "" {
				out += ","
			}
			out += n.name
		}
	}
	if out == "" {
		return "static"
	}
	return out
}

// ErrUnsupported is the sentinel every capability refusal matches:
// errors.Is(err, ErrUnsupported) holds for any operation a protocol's Caps
// exclude. The concrete error is an *OpError naming the protocol and
// operation.
var ErrUnsupported = errors.New("operation not supported by this overlay protocol")

// OpError is the typed refusal returned for operations outside a protocol's
// capability set.
type OpError struct {
	Protocol string // protocol name, e.g. "can"
	Op       string // operation name, e.g. "Leave"
}

func (e *OpError) Error() string {
	return fmt.Sprintf("overlay: %s does not support %s", e.Protocol, e.Op)
}

// Is makes errors.Is(err, ErrUnsupported) true for every OpError.
func (e *OpError) Is(target error) bool { return target == ErrUnsupported }

// unsupported builds the canonical refusal.
func unsupported(protocol, op string) error { return &OpError{Protocol: protocol, Op: op} }

// Handle names one overlay member. Handles are issued by Build and Join and
// stay valid as identifiers after the member departs (operations on a
// departed member fail cleanly).
type Handle interface {
	// Addr is the member's location in the metric space.
	Addr() netsim.Addr
	// Label renders the member's protocol-specific identifier (a Tapestry
	// digit string, a Chord ring position, a CAN address, ...).
	Label() string
}

// Result reports one object location, protocol-independently.
type Result struct {
	Found     bool
	Server    netsim.Addr // the replica that would serve the object
	ServerID  string      // the replica holder's Label ("" if unknown)
	Hops      int         // application-level hops, incl. the final serve hop
	FromCache bool        // answered from a cached location mapping (CapCache)
}

// Stats is a protocol-wide snapshot. Fields a protocol has no notion of stay
// zero.
type Stats struct {
	Nodes            int
	TotalMessages    int64
	MeanTableEntries float64 // routing entries per member
	TotalPointers    int     // in-network object pointers (Tapestry)
	CachedMappings   int     // serving-layer cache entries (CapCache)
	CacheHits        int64
	CacheMisses      int64
	Roots            int // salted roots per object (CapReplication; 0 = no notion)
	Replicas         int // replica servers per publish (CapReplication; 0 = no notion)
}

// Protocol is the unified overlay interface. Implementations are built
// empty over a netsim.Network, populated once via Build, and then driven
// through the uniform operation vocabulary. Adapters serialize membership
// operations (Build/Join consume the adapter RNG under one lock) and guard
// their member bookkeeping, so concurrent Handles/Stats/membership calls
// are safe; whether object operations (Publish/Locate/...) may run
// concurrently is up to the underlying protocol (Tapestry's are
// concurrency-safe, the serial baselines are driven serially by the
// experiment harness).
//
// Determinism contract: given the same Config (including Seed), the same
// Build addresses and the same operation sequence, every operation returns
// identical results and identical cost accounting. The conformance suite
// pins this for every registered protocol.
type Protocol interface {
	// Name returns the registry name ("tapestry", "chord", ...).
	Name() string
	// Caps returns the capability set; operations outside it return a typed
	// refusal matching ErrUnsupported.
	Caps() Caps
	// Net returns the simulated network the overlay is attached to.
	Net() *netsim.Network

	// Build populates the empty overlay with members at the given addresses
	// and returns their handles in address order (handle i sits at addrs[i])
	// plus per-member construction message counts (zeros for protocols that
	// build statically from global knowledge). Build must be called exactly
	// once, before any other operation.
	Build(addrs []netsim.Addr) ([]Handle, []int, error)
	// Join dynamically inserts one member (CapJoin). On an empty overlay it
	// bootstraps instead of routing through a gateway.
	Join(addr netsim.Addr) (Handle, netsim.Cost, error)
	// Leave removes the member gracefully (CapLeave).
	Leave(h Handle) (netsim.Cost, error)
	// Fail kills the member without notice (CapFail).
	Fail(h Handle) error

	// Publish announces that member h stores a replica of the named object.
	Publish(h Handle, key string) (netsim.Cost, error)
	// Unpublish withdraws h's replica of the named object (CapUnpublish).
	Unpublish(h Handle, key string) (netsim.Cost, error)
	// Locate routes a query for the named object from h.
	Locate(h Handle, key string) (Result, netsim.Cost)

	// Maintain runs one stabilization / soft-state maintenance pass
	// (CapMaintain): repair around failures, expire and republish soft
	// state.
	Maintain() (netsim.Cost, error)

	// Handles returns the current live members in deterministic
	// (insertion) order.
	Handles() []Handle
	// TableSize reports h's routing-state size in entries (the Table 1
	// space measurement).
	TableSize(h Handle) int
	// Stats returns a protocol-wide snapshot.
	Stats() Stats
}

// Config parameterizes a Builder. Protocols ignore the knobs that do not
// concern them.
type Config struct {
	// Spec shapes the identifier space of the prefix-routing protocols
	// (Tapestry, Pastry). Zero means ids.DefaultSpec.
	Spec ids.Spec
	// Seed drives every randomized choice the adapter makes (member IDs,
	// gateway selection, CAN split points). Identical seeds replay exactly.
	Seed int64
	// Static selects Tapestry's oracle static construction in Build (fast,
	// no join costs) instead of the dynamic insertion protocol.
	Static bool
	// Core, when non-nil, is the full Tapestry configuration to use
	// verbatim (the facade builds one from its public Config). When nil,
	// Tapestry runs core.DefaultConfig with Spec and Seed applied.
	Core *core.Config
}

// spec returns the effective identifier spec.
func (c Config) spec() ids.Spec {
	if c.Spec.Base == 0 && c.Spec.Digits == 0 {
		return ids.DefaultSpec
	}
	return c.Spec
}

// Builder is one registered protocol constructor.
type Builder struct {
	Name string
	// Caps is the capability set instances of this protocol report —
	// available without building, for caps-gated experiment planning.
	Caps Caps
	// New creates an empty instance over the network.
	New func(net *netsim.Network, cfg Config) (Protocol, error)
}

// builders holds every protocol in presentation order: Tapestry first, then
// the paper's baselines in the order Table 1 lists them.
var builders = []Builder{
	{Name: "tapestry", Caps: tapestryCaps, New: newTapestry},
	{Name: "chord", Caps: chordCaps, New: newChord},
	{Name: "pastry", Caps: pastryCaps, New: newPastry},
	{Name: "can", Caps: canCaps, New: newCAN},
	{Name: "directory", Caps: directoryCaps, New: newDirectory},
}

// Builders returns every registered protocol in presentation order.
func Builders() []Builder {
	out := make([]Builder, len(builders))
	copy(out, builders)
	return out
}

// Lookup resolves a protocol by registry name.
func Lookup(name string) (Builder, error) {
	for _, b := range builders {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.Name
	}
	return Builder{}, fmt.Errorf("overlay: unknown protocol %q (have %v)", name, names)
}
