package core

import (
	"math"
	"slices"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// This file implements the paper's level-by-level nearest-neighbor search
// (Section 4.2, generalizing Figure 4's GETNEXTLIST) as a reusable engine.
// A search walks the prefix hierarchy toward a target prefix p: at match
// level m it keeps the k closest known nodes sharing at least m digits with
// p, queries the unqueried ones for their routing rows and backpointers at
// levels >= m (every entry there shares at least m digits with the queried
// node, hence candidates for level m and beyond), folds the answers into a
// measured candidate pool, and re-selects — repeating until the k closest
// m-matchers have all been queried. Lemma 1 is the reason one level's k-list
// is derivable from the previous level's: in a growth-restricted metric the
// closest nodes matching one more digit appear in the rows and backpointers
// of the current list w.h.p.
//
// Three consumers share the engine:
//   - repairHoleNearest (routing.go): refill N_{β,j} with the closest
//     qualifying nodes after a failure, so Property 2 survives churn;
//   - acquireNeighborTable (join.go): the Figure 4 descent that builds a new
//     node's table level by level;
//   - RefineTable (optimize.go): the §6.4 periodic refresh, re-running the
//     search from a node's current contacts without a multicast.

// Per-level query budget: how many times a level's k-closest list may be
// re-selected and its unqueried members contacted before the search moves
// on. Two rounds realize Lemma 1 (one to derive the next level's candidates,
// one to chase anything closer those candidates revealed); the slot search
// spends an extra closure round at the final level, where quality decides
// whether a repaired slot matches the oracle-closest node.
const (
	nnLevelRounds   = 2
	nnClosureRounds = 3
)

// nnScratch is the search engine's reusable arena: the measured candidate
// pool, per-peer query state and three fold/result buffers. Searches run on
// every repair, join and refresh, and their tables and slices dominated the
// engine's allocation profile; arenas recycle through Mesh.nnScratchPool so
// a steady-state mesh stops allocating them at all.
//
// The pool is kept in (distance, ID) order — the order the routing table
// keeps its sets in — by inserting each new candidate at its rank, so
// selecting a level's k closest matchers is a filtered walk of a prefix and
// nothing is ever sorted. A candidate whose probe failed is deleted from the
// pool; seen remembers every ID ever pooled, so neither a duplicate answer
// nor a corpse is measured or pooled twice.
type nnScratch struct {
	pool  []route.Entry
	seen  ids.Table[int] // every ID ever pooled -> lowest row floor it has been queried at, or nnUnqueried
	list  []route.Entry  // closest/matchers result (re-filled per call)
	seeds []route.Entry  // vantage-table seed gathering
	found []route.Entry  // per-peer fold buffer

	// bandReq/bandResp are the recycled wire messages of queryPeer's
	// table-band RPC; bandResp decodes straight into the found buffer.
	bandReq  wire.TableBandReq
	bandResp wire.TableBandResp

	// search is the header of the search running on this arena: recycled
	// with it, so starting a search allocates nothing.
	search nnSearch
}

// nnUnqueried is the floor of a pooled candidate no query has reached yet:
// above every level, so any floor is new to it.
const nnUnqueried = math.MaxInt

// reset clears the arena for reuse; the table and the slices keep their
// storage.
func (sc *nnScratch) reset() {
	sc.seen.Clear()
	sc.pool = sc.pool[:0]
	sc.list = sc.list[:0]
	sc.seeds = sc.seeds[:0]
	sc.found = sc.found[:0]
}

// nnSearch carries one level-by-level search from a fixed vantage node: the
// measured candidate pool (distances from the vantage), which peers have
// been queried and down to which row floor, and which probes failed.
type nnSearch struct {
	n     *Node
	k     int
	cost  *netsim.Cost
	avoid ids.ID // an ID never pooled nor returned (the corpse being replaced); zero = none

	// onPeer, when set, runs on every successfully queried peer — join uses
	// it for Figure 4 line 4 (the queried node checks whether the vantage
	// node improves its own table, Theorem 4's update mechanism).
	onPeer func(peer *Node)
	// onDead, when set, runs on every candidate whose probe failed — join
	// and the periodic refresh use it to purge the corpse from the vantage
	// node's own table (noteDead), which the deleted GETNEXTLIST did
	// inline. Repair leaves it nil: noteDead re-enters repair, and a repair
	// recursing on every corpse its own search trips over would cascade.
	onDead func(e route.Entry)

	*nnScratch
}

func (n *Node) newNNSearch(k int, avoid ids.ID, cost *netsim.Cost) *nnSearch {
	sc := n.mesh.getNNScratch()
	sc.search = nnSearch{n: n, k: k, cost: cost, avoid: avoid, nnScratch: sc}
	return &sc.search
}

// release returns the arena to the mesh pool. The search must not be used
// afterwards, and any matchers() result the caller wants to keep must be
// copied first (it aliases the arena's list buffer).
func (s *nnSearch) release() {
	sc, m := s.nnScratch, s.n.mesh
	*s = nnSearch{} // a pooled arena pins no node, meter or callback
	m.putNNScratch(sc)
}

// poolRank returns the position of e in the pool — or where it would be
// inserted to keep (distance, ID) order — and whether it is there.
func (s *nnSearch) poolRank(e route.Entry) (int, bool) {
	return slices.BinarySearchFunc(s.pool, e, func(a, b route.Entry) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return a.ID.Compare(b.ID)
	})
}

// add measures a candidate from the vantage node and pools it at its
// (distance, ID) rank; the vantage node itself, the avoided ID and
// already-known candidates are ignored.
func (s *nnSearch) add(e route.Entry) {
	if e.ID.IsZero() || e.ID.Equal(s.n.id) || e.ID.Equal(s.avoid) {
		return
	}
	if !s.seen.Add(e.ID, nnUnqueried) {
		return
	}
	e.Distance = s.n.mesh.net.Distance(s.n.addr, e.Addr)
	e.Pinned, e.Leaving = false, false
	i, _ := s.poolRank(e)
	s.pool = slices.Insert(s.pool, i, e)
}

// fail drops a candidate whose probe failed from the pool for good: it stays
// seen, so a later answer naming it is not pooled again.
func (s *nnSearch) fail(e route.Entry) {
	if i, ok := s.poolRank(e); ok {
		s.pool = slices.Delete(s.pool, i, i+1)
	}
}

// closest returns the first limit pooled candidates sharing at least m digits
// with p (all of them when limit < 0), in (distance, ID) order — the same
// order the routing table keeps its sets in, so "first matcher" and "slot
// primary" agree on tie-breaks. It is a filtered walk of the ordered pool.
// The result aliases the arena's list buffer: it is valid until the next
// closest or matchers call and must not outlive release().
func (s *nnSearch) closest(p ids.Prefix, m, limit int) []route.Entry {
	out := s.list[:0]
	for _, e := range s.pool {
		if len(out) == limit {
			break
		}
		if e.ID.MatchLen(p) >= m {
			out = append(out, e)
		}
	}
	s.list = out
	return out
}

// matchers returns every pooled candidate sharing at least m digits with p
// whose probe has not failed, in (distance, ID) order. Same aliasing contract
// as closest.
func (s *nnSearch) matchers(p ids.Prefix, m int) []route.Entry {
	return s.closest(p, m, -1)
}

// appendSeedBand collects every contact of t qualifying at levels >= level —
// forward rows as one contiguous RangeView copy, backpointers level by
// level — into dst. Self entries ride along; add() drops them.
func appendSeedBand(dst []route.Entry, t *route.Table, level int) []route.Entry {
	dst = append(dst, t.RangeView(level, t.Levels())...)
	for l := level; l < t.Levels(); l++ {
		dst = t.AppendBacks(dst, l)
	}
	return dst
}

// queryPeer contacts a pooled candidate and folds its forward rows and
// backpointers at levels >= floor into the pool. Dead peers are marked failed
// (their cleanup belongs to the caller's sweep, not to the search — recursing
// into repair from inside a repair's own search would re-enter this code).
func (s *nnSearch) queryPeer(e route.Entry, floor int) bool {
	// A peer queried before at a higher floor already contributed its rows
	// [prevFloor, Levels); re-fold only the newly exposed band below it —
	// the dedup in add() would discard the rest anyway.
	fold := -1 // exclusive upper bound; -1 = everything above floor
	if f, _ := s.seen.Get(e.ID); f != nnUnqueried {
		if floor >= f {
			return true // nothing new to gather
		}
		fold = f
	}
	s.seen.Put(e.ID, floor)
	s.bandReq.Floor, s.bandReq.Fold = floor, fold
	s.bandResp.Entries = s.found[:0]
	peer, err := s.n.mesh.invoke(s.n.addr, e, &s.bandReq, &s.bandResp, s.cost, false)
	if err != nil {
		s.fail(e)
		if s.onDead != nil {
			s.onDead(e)
		}
		return false
	}
	s.found = s.bandResp.Entries
	for _, f := range s.found {
		s.add(f)
	}
	if s.onPeer != nil {
		s.onPeer(peer)
	}
	return true
}

// expandLevel runs one level of the search: select the k closest candidates
// sharing at least m digits with p, query those not yet queried at a row
// floor this low, and repeat (new answers may contain closer matchers) until
// the k closest have all been queried or the round budget is spent.
func (s *nnSearch) expandLevel(p ids.Prefix, m, rounds int) {
	// Gathering at floor m surfaces level-m candidates; when m already spans
	// the whole target prefix, row m-1 is where the full matchers keep their
	// slot-mates, so the floor drops one level.
	floor := m
	if floor >= p.Len() && floor > 0 {
		floor = p.Len() - 1
	}
	for r := 0; r < rounds; r++ {
		list := s.closest(p, m, s.k)
		progressed := false
		for _, c := range list {
			if f, _ := s.seen.Get(c.ID); f <= floor {
				continue
			}
			s.queryPeer(c, floor)
			progressed = true // even a failed probe changes the matcher set
		}
		if !progressed {
			return
		}
	}
}

// nearestForSlot is the slot-targeted search: the closest live nodes
// qualifying for slot (level, digit) of n's table, i.e. nodes extending
// β·j for β = n's level-length prefix. Seeds are n's own contacts sharing β
// (rows and backpointers at levels >= level); the search then walks the last
// prefix level: the k closest β-sharers are queried for their (β, ·) rows,
// surfacing (β, j) nodes, and the closest of those are closure-queried for
// their slot-mates until the k-closest list is stable. The returned entries
// are sorted by (distance, ID) from n's vantage; avoid names an ID that must
// not be returned (the dead node being replaced; zero for none).
func (n *Node) nearestForSlot(level int, digit ids.Digit, avoid ids.ID, cost *netsim.Cost) []route.Entry {
	k := n.mesh.kList()
	s := n.newNNSearch(k, avoid, cost)

	n.mu.Lock()
	s.seeds = appendSeedBand(s.seeds[:0], n.table, level)
	n.mu.Unlock()
	for _, e := range s.seeds {
		s.add(e)
	}

	p := n.id.Prefix(level).Extend(digit)
	s.expandLevel(p, level, nnLevelRounds)
	s.expandLevel(p, p.Len(), nnClosureRounds)
	res := s.matchers(p, p.Len())
	out := make([]route.Entry, len(res))
	copy(out, res)
	s.release()
	return out
}

// NearestForSlot exposes the §4.2 slot search for experiments, audits and
// benchmarks: the closest known live candidates for (level, digit), sorted
// by distance from n. It performs network probes (charged to cost) but never
// mutates n's table.
func (n *Node) NearestForSlot(level int, digit ids.Digit, cost *netsim.Cost) []route.Entry {
	return n.nearestForSlot(level, digit, ids.ID{}, cost)
}
