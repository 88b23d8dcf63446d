package expt

import (
	"fmt"
	"math/rand"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
)

// exptSpec keeps identifiers short enough that modest simulations exercise
// several routing levels while staying collision-free.
var exptSpec = ids.Spec{Base: 16, Digits: 8}

// subSeed derives a labeled RNG stream within a cell — one stream for
// network construction, another for the workload, and so on. Cells that
// build several systems for side-by-side comparison MUST build them all
// from the same sub-seed so node index i lands on the same address in each.
func subSeed(cellSeed int64, label string) int64 {
	return stats.StreamSeed(cellSeed, label, 0)
}

// subRNG returns a generator over the labeled stream of subSeed.
func subRNG(cellSeed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(cellSeed, label)))
}

// pickAddrs chooses n distinct host addresses uniformly from the space.
func pickAddrs(space metric.Space, n int, rng *rand.Rand) []netsim.Addr {
	if n > space.Size() {
		panic(fmt.Sprintf("expt: %d nodes do not fit in %d points", n, space.Size()))
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	return addrs
}

// ringSpace hosts n nodes on a 4n-point ring (sparse occupancy keeps
// distances non-degenerate).
func ringSpace(n int) metric.Space { return metric.NewRing(4 * n) }

// tapEnv is a built Tapestry overlay plus bookkeeping, for the experiments
// that exercise Tapestry-specific machinery (audits, repair, the
// serving-layer cache twins). Cross-protocol experiments use overlayEnv,
// whose joinMsgs carry the per-join costs E3 measures.
type tapEnv struct {
	mesh  *core.Mesh
	nodes []*core.Node
	net   *netsim.Network
}

// buildTapestry grows a Tapestry mesh. dynamic=true uses the paper's join
// protocol; false uses the static oracle construction (fast path for large
// read-only meshes).
func buildTapestry(space metric.Space, n int, cfg core.Config, seed int64, dynamic bool) tapEnv {
	rng := rand.New(rand.NewSource(seed))
	net := netsim.New(space)
	addrs := pickAddrs(space, n, rng)
	if dynamic {
		m, err := core.NewMesh(net, cfg)
		if err != nil {
			panic(err)
		}
		nodes, _, err := m.GrowSequential(addrs, rng)
		if err != nil {
			panic(err)
		}
		return tapEnv{mesh: m, nodes: nodes, net: net}
	}
	parts := core.StaticParticipants(cfg.Spec, addrs, rng)
	m, err := core.BuildStatic(net, cfg, parts)
	if err != nil {
		panic(err)
	}
	// Keep nodes aligned with the address order so node index i refers to
	// the same location in every system built from the same seed.
	nodes := make([]*core.Node, len(addrs))
	for i, a := range addrs {
		nodes[i] = m.NodeAt(a)
	}
	return tapEnv{mesh: m, nodes: nodes, net: net}
}

func defaultTapConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Spec = exptSpec
	return cfg
}

// overlayEnv is one protocol instance built through the unified
// overlay.Builder registry, with handles in address order: node index i sits
// at the same address in every overlayEnv built over the same addrs, which
// is what makes cross-protocol cells comparable.
type overlayEnv struct {
	proto    overlay.Protocol
	nodes    []overlay.Handle
	joinMsgs []int // per-member construction messages (zeros for static builds)
}

// buildOverlay constructs the named protocol over a fresh network on the
// space and populates it at the given addresses. Every protocol of a cell
// must be built over the same addrs with the same seed — the registry-keyed
// replacement for the bespoke per-protocol builder shims this file used to
// hold.
func buildOverlay(name string, space metric.Space, addrs []netsim.Addr, cfg overlay.Config) overlayEnv {
	b, err := overlay.Lookup(name)
	if err != nil {
		panic(err)
	}
	if cfg.Spec.Base == 0 {
		cfg.Spec = exptSpec
	}
	p, err := b.New(netsim.New(space), cfg)
	if err != nil {
		panic(fmt.Sprintf("expt: build %s: %v", name, err))
	}
	handles, msgs, err := p.Build(addrs)
	if err != nil {
		panic(fmt.Sprintf("expt: build %s: %v", name, err))
	}
	return overlayEnv{proto: p, nodes: handles, joinMsgs: msgs}
}

// publish announces node i as a replica holder of the key, panicking on the
// impossible (experiment placements only publish from live members).
func (e overlayEnv) publish(i int, key string) {
	if _, err := e.proto.Publish(e.nodes[i], key); err != nil {
		panic(fmt.Sprintf("expt: %s publish %q: %v", e.proto.Name(), key, err))
	}
}

// locate queries the key from node i, returning the result and its cost.
func (e overlayEnv) locate(i int, key string) (overlay.Result, netsim.Cost) {
	return e.proto.Locate(e.nodes[i], key)
}
