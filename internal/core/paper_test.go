package core

import (
	"math"
	"math/rand"
	"testing"

	"tapestry/internal/ids"
)

// TestPaperShapesOnStaticMeshes checks the paper rather than the parent
// commit. On static meshes of growing size at Base 16, with 64 objects placed
// at random: surrogate routing for each object's key ends at the same root
// from every start node (Theorem 2's uniqueness, audited exhaustively), and a
// locate from 256 random clients per object takes, on average, no more than
// log_16 n + 2 hops (Theorem 2's O(log n) path with its under-two expected
// surrogate hops; the final hop to the replica is included, and stopping at
// the first pointer only shortens it). An edit to the per-hop decision that trades hops or roots away fails
// here whatever its parent printed.
func TestPaperShapesOnStaticMeshes(t *testing.T) {
	cfg := DefaultConfig()          // Base 16, 8 digits
	cfg.Transport = TransportDirect // the claims are about routing; a million socket exchanges would add nothing
	for _, n := range []int{256, 1024, 4096} {
		m := buildStaticMesh(t, n, cfg, int64(n))
		nodes := m.Nodes()
		rng := rand.New(rand.NewSource(int64(n) + 1))
		keys := make([]ids.ID, 64)
		for i := range keys {
			keys[i] = cfg.Spec.Random(rng)
			if err := nodes[rng.Intn(n)].Publish(keys[i], nil); err != nil {
				t.Fatalf("n=%d: publish: %v", n, err)
			}
		}
		if v := m.AuditUniqueRoots(keys); len(v) != 0 {
			t.Errorf("n=%d: %d unique-root violations, first: %s", n, len(v), v[0])
		}
		hops, locates := 0, 0
		for _, key := range keys {
			for i := 0; i < 256; i++ {
				c := nodes[rng.Intn(n)]
				res := c.Locate(key, nil)
				if !res.Found {
					t.Fatalf("n=%d: locate of %v from %v failed: %+v", n, key, c.id, res)
				}
				hops += res.Hops
				locates++
			}
		}
		mean, bound := float64(hops)/float64(locates), math.Log(float64(n))/math.Log(16)+2
		if mean > bound {
			t.Errorf("n=%d: mean locate hops %.3f, above log_16 n + 2 = %.3f", n, mean, bound)
		}
		t.Logf("n=%d: mean locate hops %.3f over %d locates (bound %.3f), unique roots for %d keys from %d nodes", n, mean, locates, bound, len(keys), n)
	}
}
