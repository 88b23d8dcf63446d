package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/stats"
)

func buildStaticMesh(t testing.TB, n int, cfg Config, seed int64) *Mesh {
	t.Helper()
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
		t.Fatal(err)
	}
	return m
}

func TestStaticBuildSatisfiesAllProperties(t *testing.T) {
	m := buildStaticMesh(t, 64, testConfig(), 41)
	if v := m.AuditProperty1(); len(v) != 0 {
		t.Fatalf("static Property 1:\n%v", v[:min(5, len(v))])
	}
	if v := m.AuditProperty2(); len(v) != 0 {
		t.Fatalf("static Property 2:\n%v", v[:min(5, len(v))])
	}
	rng := rand.New(rand.NewSource(42))
	keys := make([]ids.ID, 16)
	for i := range keys {
		keys[i] = testSpec.Random(rng)
	}
	if v := m.AuditUniqueRoots(keys); len(v) != 0 {
		t.Fatalf("static roots: %v", v)
	}
}

func TestStaticRejectsDuplicates(t *testing.T) {
	net := netsim.New(metric.NewRing(16))
	id1 := testSpec.Hash("x")
	if _, err := BuildStatic(net, testConfig(), []Participant{{id1, 0}, {id1, 1}}); err == nil {
		t.Error("duplicate ID must fail")
	}
	id2 := testSpec.Hash("y")
	if _, err := BuildStatic(net, testConfig(), []Participant{{id1, 0}, {id2, 0}}); err == nil {
		t.Error("duplicate address must fail")
	}
}

func TestStaticMeshServesObjects(t *testing.T) {
	m := buildStaticMesh(t, 48, testConfig(), 43)
	nodes := m.Nodes()
	guid := testSpec.Hash("static-object")
	if err := nodes[7].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range nodes {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("locate failed from %v on static mesh", c.id)
		}
	}
}

// TestDynamicMatchesStatic is the Section 4 equivalence claim: growing a
// mesh by sequential insertion (with full k) yields routing tables
// equivalent to the omniscient static construction — same set of slot
// occupants up to distance ties.
func TestDynamicMatchesStatic(t *testing.T) {
	cfg := testConfig()
	cfg.K = 40
	seed := int64(44)
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(160)
	netDyn := netsim.New(space)
	mDyn, err := NewMesh(netDyn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, 40)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	dynNodes, _, err := mDyn.GrowSequential(addrs, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Static twin with the same IDs and addresses.
	parts := make([]Participant, len(dynNodes))
	for i, n := range dynNodes {
		parts[i] = Participant{ID: n.id, Addr: n.addr}
	}
	netStat := netsim.New(space)
	mStat, err := BuildStatic(netStat, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for _, dn := range dynNodes {
		sn := mStat.NodeByID(dn.id)
		for l := 0; l < testSpec.Digits; l++ {
			for d := 0; d < testSpec.Base; d++ {
				ds := dn.table.Set(l, ids.Digit(d))
				ss := sn.table.Set(l, ids.Digit(d))
				if len(ds) != len(ss) {
					mismatches++
					continue
				}
				for i := range ds {
					// Compare by distance (ties are interchangeable).
					if ds[i].Distance != ss[i].Distance {
						mismatches++
						break
					}
				}
			}
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d slots differ between dynamic and static construction", mismatches)
	}
}

// staticParts draws a deterministic participant set on a fresh network.
// Byte-identity is compared through meshFingerprint (nearest_test.go).
func staticParts(n int, seed int64) (*netsim.Network, []Participant) {
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	net := netsim.New(space)
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	return net, StaticParticipants(testConfig().Spec, addrs, rng)
}

// TestBuildStaticWorkerInvariance pins the parallel-construction contract:
// the exact mesh (a sample no bucket exceeds) is byte-identical for every
// worker count, and identical to what the sequential single-worker fill
// produces.
func TestBuildStaticWorkerInvariance(t *testing.T) {
	var prints []string
	for _, workers := range []int{1, 3, 8} {
		net, parts := staticParts(96, 51)
		m, err := BuildStaticSampled(net, testConfig(), parts, len(parts), workers)
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, meshFingerprint(m))
	}
	if prints[0] != prints[1] || prints[0] != prints[2] {
		t.Fatal("exact static build differs across worker counts")
	}
}

// TestBuildStaticSampledInvariantAndProperty1 checks the sampled large-scale
// builder: byte-identical across worker counts, and Property 1 (no false
// holes) holds exactly despite the approximate neighbor selection.
func TestBuildStaticSampledInvariantAndProperty1(t *testing.T) {
	var prints []string
	var last *Mesh
	for _, workers := range []int{1, 8} {
		net, parts := staticParts(128, 52)
		m, err := BuildStaticSampled(net, testConfig(), parts, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, meshFingerprint(m))
		last = m
	}
	if prints[0] != prints[1] {
		t.Fatal("BuildStaticSampled output differs across worker counts")
	}
	if v := last.AuditProperty1(); len(v) != 0 {
		t.Fatalf("sampled build violates Property 1:\n%v", v[:min(5, len(v))])
	}
	// The sampled mesh must also serve objects end to end.
	nodes := last.Nodes()
	guid := testSpec.Hash("sampled-object")
	if err := nodes[11].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range nodes[:16] {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("locate failed from %v on sampled mesh", c.id)
		}
	}
}

// buildStaticSortEverything is the static build as it was before it selected:
// every bucket (or its seeded sample) is sorted whole in (distance, ID) order
// and offered to table.Add entry by entry, which keeps R and rejects the
// rest. Kept as the reference BuildStaticSampled's bounded selection is
// pinned to; single-threaded, everything else as in static.go.
func buildStaticSortEverything(net *netsim.Network, cfg Config, parts []Participant, sample int) (*Mesh, error) {
	m, nodes, err := registerStatic(net, cfg, parts)
	if err != nil {
		return nil, err
	}
	spec := m.cfg.Spec
	if sample < 2*m.cfg.R {
		sample = 2 * m.cfg.R
	}
	buckets := make(map[string][]int32)
	for i, n := range nodes {
		key := make([]byte, 0, spec.Digits)
		for l := 0; l < spec.Digits; l++ {
			key = append(key, byte(n.id.Digit(l)))
			buckets[string(key)] = append(buckets[string(key)], int32(i))
		}
	}
	intents := make([][]backIntent, len(nodes))
	for i, owner := range nodes {
		var prefix []byte
		for l := 0; l < spec.Digits; l++ {
			for d := 0; d < spec.Base; d++ {
				bucket := buckets[string(append(prefix, byte(d)))]
				var cands []staticCand
				if len(bucket) <= sample {
					for _, bi := range bucket {
						if int(bi) != i {
							cands = append(cands, staticCand{bi, net.Distance(owner.addr, nodes[bi].addr)})
						}
					}
				} else {
					s := uint64(stats.StreamSeed(m.cfg.Seed, owner.id.String(), l*spec.Base+d))
					for k := 0; k < 3*sample && len(cands) < sample; k++ {
						s = stats.SplitMix64(s)
						bi := bucket[int(s%uint64(len(bucket)))]
						if int(bi) == i || slices.ContainsFunc(cands, func(c staticCand) bool { return c.idx == bi }) {
							continue
						}
						cands = append(cands, staticCand{bi, net.Distance(owner.addr, nodes[bi].addr)})
					}
				}
				slices.SortFunc(cands, func(a, b staticCand) int {
					if c := cmp.Compare(a.d, b.d); c != 0 {
						return c
					}
					return nodes[a.idx].id.Compare(nodes[b.idx].id)
				})
				for _, c := range cands {
					p := nodes[c.idx]
					if added, _ := owner.table.Add(l, route.Entry{ID: p.id, Addr: p.addr, Distance: c.d}); added {
						intents[i] = append(intents[i], backIntent{peer: p, level: l, d: c.d})
					}
				}
			}
			prefix = append(prefix, byte(owner.id.Digit(l)))
		}
	}
	applyBackIntents(nodes, intents)
	return m, nil
}

// TestBuildStaticSelectsWhatSortingKept pins the selecting build to the
// sort-everything reference, table for table — every neighbor set entry for
// entry and every backpointer list, distances included — for the exact build
// and for a sampled one (sample below the low levels' bucket sizes), at two
// seeds. The ring metric puts two nodes at most distances, so the ID
// tie-break decides many a set's last place.
func TestBuildStaticSelectsWhatSortingKept(t *testing.T) {
	for _, seed := range []int64{61, 62} {
		for _, sample := range []int{160, 8} {
			net, parts := staticParts(160, seed)
			got, err := BuildStaticSampled(net, testConfig(), parts, sample, 3)
			if err != nil {
				t.Fatal(err)
			}
			refNet, refParts := staticParts(160, seed)
			want, err := buildStaticSortEverything(refNet, testConfig(), refParts, sample)
			if err != nil {
				t.Fatal(err)
			}
			refs := want.Nodes()
			for i, n := range got.Nodes() {
				ref := refs[i]
				if !n.id.Equal(ref.id) || n.addr != ref.addr {
					t.Fatalf("seed %d sample %d: node %d is %v@%d, reference %v@%d", seed, sample, i, n.id, n.addr, ref.id, ref.addr)
				}
				for l := 0; l < n.table.Levels(); l++ {
					for d := 0; d < n.table.Base(); d++ {
						if g, w := n.table.SetView(l, ids.Digit(d)), ref.table.SetView(l, ids.Digit(d)); !slices.Equal(g, w) {
							t.Fatalf("seed %d sample %d: %v slot (%d,%d)\n got %v\nwant %v", seed, sample, n.id, l, d, g, w)
						}
					}
					if g, w := n.table.Backs(l), ref.table.Backs(l); !slices.Equal(g, w) {
						t.Fatalf("seed %d sample %d: %v backpointers at level %d\n got %v\nwant %v", seed, sample, n.id, l, g, w)
					}
				}
			}
		}
	}
}
