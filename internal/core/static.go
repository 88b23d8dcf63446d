package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/stats"
)

// Participant names one (node-ID, address) pair for static construction.
type Participant struct {
	ID   ids.ID
	Addr netsim.Addr
}

// BuildStatic constructs a complete Tapestry mesh from global knowledge —
// the preprocessing the original PRR scheme assumes ("the original statement
// of the algorithm required a static set of participating nodes as well as
// significant work to preprocess this set"). Every neighbor set is filled
// with exactly the R closest qualifying nodes, and backpointers are exact.
//
// BuildStatic is the oracle the dynamic algorithms are measured against
// (Section 4: insertion should produce "the same as if we had been able to
// build the network from static data") and the fast path for standing up
// large meshes in benchmarks. It is BuildStaticSampled with a sample no
// bucket exceeds, on one worker per CPU.
func BuildStatic(net *netsim.Network, cfg Config, parts []Participant) (*Mesh, error) {
	return BuildStaticSampled(net, cfg, parts, len(parts), 0)
}

// BuildStaticSampled is the one static constructor. Each (level, digit) slot
// of each owner draws its candidates from the slot's prefix bucket — the
// nodes sharing the owner's first `level` digits and carrying `digit` next —
// and keeps the R closest in (distance, ID) order. A bucket no larger than
// `sample` is taken whole, so with sample >= len(parts) every slot receives
// exactly its R closest qualifying nodes (BuildStatic). A larger bucket
// yields up to `sample` seeded draws instead, for O(n · digits · base ·
// sample) total work where the exact fill is quadratic — prohibitive at 100k
// nodes.
//
// Property 1 (no false holes) holds exactly for every sample: a slot is
// filled whenever any qualifying node exists, because every non-empty bucket
// yields at least one candidate. Property 2 (neighbor sets hold the R
// closest) becomes approximate once buckets are sampled — the candidates are
// close-ish, not provably closest — which is the documented price of
// planetary-scale construction; dynamic joins and the §4.2 repair engine
// remain exact.
//
// Determinism: each owner's fill is a pure function of the immutable
// participant set, and candidate draws come from a SplitMix64 stream seeded
// by (cfg.Seed, owner ID, slot), never by worker identity. Owners are
// partitioned across workers (<= 0 means one per CPU) in contiguous index
// shards that only write their own tables, and the backpointer registrations
// each fill produces are applied in a second pass in owner order, so the
// mesh is byte-identical for every workers value and every host core count.
func BuildStaticSampled(net *netsim.Network, cfg Config, parts []Participant, sample, workers int) (*Mesh, error) {
	m, nodes, err := registerStatic(net, cfg, parts)
	if err != nil {
		return nil, err
	}
	spec := m.cfg.Spec
	if sample < 2*m.cfg.R {
		sample = 2 * m.cfg.R
	}

	// buckets maps each (l+1)-digit prefix to the indices (into nodes) of the
	// IDs carrying it: the candidate pool for every slot (level l, digit d)
	// whose owner prefix extends to that key. Built sequentially so bucket
	// order is parts order.
	buckets := make(map[string][]int32, len(nodes)*spec.Digits)
	keyBuf := make([]byte, spec.Digits)
	for i, n := range nodes {
		for l := 0; l < spec.Digits; l++ {
			keyBuf[l] = byte(n.id.Digit(l))
		}
		for l := 0; l < spec.Digits; l++ {
			k := string(keyBuf[:l+1])
			buckets[k] = append(buckets[k], int32(i))
		}
	}

	// less is the (distance, ID) order route.Table ranks a neighbor set in.
	less := func(a, b staticCand) bool {
		if a.d != b.d {
			return a.d < b.d
		}
		return nodes[a.idx].id.Less(nodes[b.idx].id)
	}
	r := m.cfg.R
	intents := make([][]backIntent, len(nodes))
	parallelFor(len(nodes), workers, func(i int) {
		owner := nodes[i]
		label := owner.id.String()
		prefix := make([]byte, 0, spec.Digits)
		drawn := make([]int32, 0, sample)
		// closest holds the slot's R closest candidates so far, in order. R is
		// all table.Add can accept — nothing is pinned in a static build, and
		// in its own-digit slot the owner's self entry already takes a place —
		// so the rest of a bucket (at level 0, a base-th of the mesh) is
		// compared against the R-th and dropped, never sorted.
		closest := make([]staticCand, 0, r)
		offer := func(bi int32) {
			c := staticCand{bi, net.Distance(owner.addr, nodes[bi].addr)}
			pos := len(closest)
			for pos > 0 && less(c, closest[pos-1]) {
				pos--
			}
			if pos == r {
				return
			}
			if len(closest) < r {
				closest = append(closest, c)
			}
			copy(closest[pos+1:], closest[pos:])
			closest[pos] = c
		}
		for l := 0; l < spec.Digits; l++ {
			for d := 0; d < spec.Base; d++ {
				bucket := buckets[string(append(prefix, byte(d)))]
				closest = closest[:0]
				if len(bucket) <= sample {
					for _, bi := range bucket {
						if int(bi) != i {
							offer(bi)
						}
					}
				} else {
					// Seeded draws with replacement, deduplicated; the stream
					// is a function of (seed, owner, slot) only.
					drawn = drawn[:0]
					s := uint64(stats.StreamSeed(m.cfg.Seed, label, l*spec.Base+d))
					for k := 0; k < 3*sample && len(drawn) < sample; k++ {
						s = stats.SplitMix64(s)
						bi := bucket[int(s%uint64(len(bucket)))]
						if int(bi) != i && !slices.Contains(drawn, bi) {
							drawn = append(drawn, bi)
							offer(bi)
						}
					}
				}
				for _, c := range closest {
					p := nodes[c.idx]
					added, _ := owner.table.Add(l, route.Entry{ID: p.id, Addr: p.addr, Distance: c.d})
					if added {
						intents[i] = append(intents[i], backIntent{peer: p, level: l, d: c.d})
					}
				}
			}
			prefix = append(prefix, byte(owner.id.Digit(l)))
		}
	})
	applyBackIntents(nodes, intents)
	return m, nil
}

// staticCand is one candidate for a slot of the static build: an index into
// the participant list and its distance from the slot's owner.
type staticCand struct {
	idx int32
	d   float64
}

// backIntent is one deferred backpointer registration: during the parallel
// fill phase owners only write their own tables; the cross-owner AddBack
// writes are applied afterwards, in owner order, single-threaded.
type backIntent struct {
	peer  *Node
	level int
	d     float64
}

func applyBackIntents(nodes []*Node, intents [][]backIntent) {
	for i, list := range intents {
		owner := nodes[i]
		for _, bi := range list {
			bi.peer.table.AddBack(bi.level, route.Entry{ID: owner.id, Addr: owner.addr, Distance: bi.d})
		}
	}
}

// registerStatic validates the participant set and registers one active node
// per participant on a fresh mesh.
func registerStatic(net *netsim.Network, cfg Config, parts []Participant) (*Mesh, []*Node, error) {
	seenID := make(map[ids.ID]bool, len(parts))
	seenAddr := make(map[netsim.Addr]bool, len(parts))
	for _, p := range parts {
		if seenID[p.ID] {
			return nil, nil, fmt.Errorf("core: duplicate static ID %v", p.ID)
		}
		if seenAddr[p.Addr] {
			return nil, nil, fmt.Errorf("core: duplicate static address %d", p.Addr)
		}
		seenID[p.ID] = true
		seenAddr[p.Addr] = true
	}
	// The mesh (and, under TCP, its listener) is created only once nothing
	// below can fail, so no error path leaves a transport open.
	m, err := NewMesh(net, cfg)
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]*Node, len(parts))
	for i, p := range parts {
		n := m.newNode(p.ID, p.Addr)
		n.state.store(stateActive)
		if err := m.publish(n); err != nil {
			return nil, nil, err // unreachable: duplicates rejected above
		}
		nodes[i] = n
	}
	return m, nodes, nil
}

// parallelFor runs fn(i) for every i in [0, n) across contiguous index
// shards on max(1, workers) goroutines (workers <= 0 selects one per CPU).
// fn must be safe to run concurrently for distinct i.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// StaticParticipants draws n distinct random IDs over the given addresses,
// for convenience when standing up static meshes.
func StaticParticipants(spec ids.Spec, addrs []netsim.Addr, rng interface{ Intn(int) int }) []Participant {
	parts := make([]Participant, 0, len(addrs))
	seen := map[string]bool{}
	for _, a := range addrs {
		for {
			d := make([]ids.Digit, spec.Digits)
			for i := range d {
				d[i] = ids.Digit(rng.Intn(spec.Base))
			}
			id := spec.Make(d)
			if !seen[id.String()] {
				seen[id.String()] = true
				parts = append(parts, Participant{ID: id, Addr: a})
				break
			}
		}
	}
	return parts
}
