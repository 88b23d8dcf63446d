// Package route implements the Tapestry neighbor table: for every prefix β
// of the owning node's ID and every digit j, the set N_{β,j} of up to R
// closest nodes whose IDs share the prefix β·j (Section 2.1). The first
// (closest) member of each set is the primary neighbor; the rest are
// secondary neighbors kept for fault-resilience. The table also stores
// backpointers (who points at me, per level) and the pinned-pointer state
// used by the simultaneous-insertion protocol of Section 4.4.
//
// Canonical order is a property of the storage, not something readers
// re-derive: forward sets are kept in (distance, id) rank inside ascending
// (level, digit) slots, backpointers in ascending id order per level. Every
// maintenance path whose message order, repair order or eviction tie-breaks
// are observable (heartbeat sweep, §4.2 search seeding, Leave notification,
// audits) iterates that storage in place — ForEachNeighbor, RangeView,
// AppendBacks — so two runs of the same script send the same messages in the
// same order without a map or a sort anywhere on the way.
//
// Storage is struct-of-arrays: every neighbor set lives in ONE contiguous
// []Entry block, indexed by slot = level*base + digit through a compressed
// offset array (off[slot]..off[slot+1] brackets N_{β,j}). Per-hop scans —
// nextHop across a level's digits, multicast fan-out, whole-table folds —
// walk sequential memory instead of chasing [][][]Entry spines, and a whole
// level band is itself one contiguous range. Offsets rather than fixed-width
// slots keep a 100k-node mesh's tables compact: slots hold a handful of
// entries while level×base is large (112 slots at the planetary spec), so a
// fixed R-capacity slab would waste ~10× the memory this layout touches.
//
// A Table is not internally synchronized: the owning node serializes access
// under its own lock, which is how per-node state is guarded everywhere in
// this codebase.
package route

import (
	"fmt"
	"sort"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// Entry describes one neighbor link.
type Entry struct {
	ID       ids.ID
	Addr     netsim.Addr
	Distance float64 // metric distance from the table owner
	Pinned   bool    // pinned pointer: a mid-insertion node that must be retained and multicast to (Section 4.4)
	Leaving  bool    // the neighbor announced a voluntary departure (Section 5.1)
}

// Table is one node's complete routing state.
type Table struct {
	spec  ids.Spec
	owner ids.ID
	addr  netsim.Addr
	r     int
	slots int // spec.Digits * spec.Base

	// ents holds every neighbor set back to back, grouped by slot index
	// (level*base + digit), each set sorted by (distance, id). All pinned
	// entries are retained regardless of R; at most r unpinned entries are
	// kept per set.
	ents []Entry
	// off[s]..off[s+1] brackets slot s within ents; len(off) == slots+1.
	off []int32

	// back[level] holds backpointers — nodes that have the owner in their
	// level-`level` neighbor sets — as one slice per level in strictly
	// ascending ID order (binary-search insert and delete), so AppendBacks is
	// a plain copy.
	back [][]Entry

	// pinned counts pinned entry instances across all sets, kept in sync by
	// Add/Pin/Unpin/Remove so PinnedCount is O(1).
	pinned int
}

// New creates an empty table for a node with the given ID and address. r is
// the neighbor-set capacity R >= 1 from Section 2.1 (the paper's deployed
// configuration uses a primary plus two backups, r = 3). The owner itself is
// inserted into every set it qualifies for, so routing can always "stay
// put"; this realizes surrogate routing's termination rule.
func New(spec ids.Spec, owner ids.ID, addr netsim.Addr, r int) *Table {
	if r < 1 {
		panic("route: neighbor-set capacity R must be >= 1")
	}
	t := &Table{
		spec:  spec,
		owner: owner,
		addr:  addr,
		r:     r,
		slots: spec.Digits * spec.Base,
		ents:  make([]Entry, 0, spec.Digits*(r+1)),
		off:   make([]int32, spec.Digits*spec.Base+1),
		back:  make([][]Entry, spec.Digits),
	}
	// Self entries occupy ascending slot indices (one per level), so the CSR
	// block can be built in a single forward pass.
	self := Entry{ID: owner, Addr: addr, Distance: 0}
	cur := 0
	for l := 0; l < spec.Digits; l++ {
		s := l*spec.Base + int(owner.Digit(l))
		for ; cur <= s; cur++ {
			t.off[cur] = int32(len(t.ents))
		}
		t.ents = append(t.ents, self)
	}
	for ; cur <= t.slots; cur++ {
		t.off[cur] = int32(len(t.ents))
	}
	return t
}

// Owner returns the table owner's ID.
func (t *Table) Owner() ids.ID { return t.owner }

// Addr returns the table owner's network address.
func (t *Table) Addr() netsim.Addr { return t.addr }

// R returns the neighbor-set capacity.
func (t *Table) R() int { return t.r }

// Levels returns the number of routing-table levels (= digits per ID).
func (t *Table) Levels() int { return t.spec.Digits }

// Base returns the digit radix.
func (t *Table) Base() int { return t.spec.Base }

func (t *Table) slot(level int, digit ids.Digit) int {
	return level*t.spec.Base + int(digit)
}

// qualifies reports whether id may appear at the given level: it must share
// the owner's first `level` digits (so that it is a (β, j) node for β the
// owner's level-length prefix).
func (t *Table) qualifies(level int, id ids.ID) bool {
	return level < t.spec.Digits && ids.CommonPrefixLen(t.owner, id) >= level
}

// PinnedCount returns the number of pinned entry instances across all
// slots — a fast-path check so multicasts can skip the in-flight-inserter
// scan entirely when no insertion is pinned here.
func (t *Table) PinnedCount() int { return t.pinned }

func entryLess(a, b Entry) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID.Less(b.ID)
}

// insertAt grows slot s by placing e at block index pos (its (distance, id)
// rank within the slot), shifting the tail of the block and the downstream
// offsets.
func (t *Table) insertAt(s, pos int, e Entry) {
	t.ents = append(t.ents, Entry{})
	copy(t.ents[pos+1:], t.ents[pos:])
	t.ents[pos] = e
	for j := s + 1; j <= t.slots; j++ {
		t.off[j]++
	}
}

// removeIdx deletes ents[i] from slot s, closing the gap.
func (t *Table) removeIdx(s, i int) {
	copy(t.ents[i:], t.ents[i+1:])
	t.ents = t.ents[:len(t.ents)-1]
	for j := s + 1; j <= t.slots; j++ {
		t.off[j]--
	}
}

// lastUnpinnedIdx returns the block index of the farthest unpinned entry of
// slot s, or -1.
func (t *Table) lastUnpinnedIdx(s int) int {
	for i := int(t.off[s+1]) - 1; i >= int(t.off[s]); i-- {
		if !t.ents[i].Pinned {
			return i
		}
	}
	return -1
}

// Add inserts a neighbor at the given level, keeping the set sorted by
// distance and bounded by R (pinned entries never count against nor get
// evicted by the bound). It returns whether the entry is now present and
// any unpinned entries evicted to make room (the caller must retract its
// backpointers at those nodes). Re-adding an existing ID updates it in
// place.
func (t *Table) Add(level int, e Entry) (added bool, evicted []Entry) {
	if !t.qualifies(level, e.ID) {
		return false, nil
	}
	s := t.slot(level, e.ID.Digit(level))

	// Update in place if already present (re-rank, since the distance may
	// have changed; a pin is sticky). The entry moves within its own slot, so
	// no offset changes.
	lo, hi := int(t.off[s]), int(t.off[s+1])
	for i := lo; i < hi; i++ {
		if t.ents[i].ID.Equal(e.ID) {
			pinned := t.ents[i].Pinned || e.Pinned
			if pinned && !t.ents[i].Pinned {
				t.pinned++
			}
			e.Pinned = pinned
			for ; i > lo && entryLess(e, t.ents[i-1]); i-- {
				t.ents[i] = t.ents[i-1]
			}
			for ; i < hi-1 && entryLess(t.ents[i+1], e); i++ {
				t.ents[i] = t.ents[i+1]
			}
			t.ents[i] = e
			return true, nil
		}
	}

	// One pass for the unpinned count and e's (distance, id) rank.
	unpinned, pos := 0, hi
	for i := lo; i < hi; i++ {
		if !t.ents[i].Pinned {
			unpinned++
		}
		if pos == hi && entryLess(e, t.ents[i]) {
			pos = i
		}
	}
	if e.Pinned || unpinned < t.r {
		if e.Pinned {
			t.pinned++
		}
		t.insertAt(s, pos, e)
		return true, nil
	}

	// The set is at capacity over unpinned entries: e either ranks behind
	// all of them and does not fit, or displaces the farthest one. The set
	// keeps its size, so the move stays inside the slot and no offset
	// changes.
	last := t.lastUnpinnedIdx(s)
	if !entryLess(e, t.ents[last]) {
		return false, nil
	}
	evicted = []Entry{t.ents[last]}
	copy(t.ents[pos+1:last+1], t.ents[pos:last])
	t.ents[pos] = e
	return true, evicted
}

func sortEntries(set []Entry) {
	sort.Slice(set, func(i, j int) bool { return entryLess(set[i], set[j]) })
}

// Remove deletes the identified neighbor from every set and backpointer list
// it appears in, returning the levels at which a forward link was removed.
func (t *Table) Remove(id ids.ID) (levels []int) {
	for l := 0; l < t.spec.Digits; l++ {
		s := t.slot(l, id.Digit(l))
		for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
			if t.ents[i].ID.Equal(id) {
				if t.ents[i].Pinned {
					t.pinned--
				}
				t.removeIdx(s, i)
				levels = append(levels, l)
				break
			}
		}
		t.RemoveBack(l, id)
	}
	return levels
}

// Set returns a copy of N_{β,j} at (level, digit), primary first.
func (t *Table) Set(level int, digit ids.Digit) []Entry {
	src := t.SetView(level, digit)
	out := make([]Entry, len(src))
	copy(out, src)
	return out
}

// SetView returns N_{β,j} at (level, digit), primary first, WITHOUT copying:
// the returned slice aliases the table's own storage. The caller must hold
// the owning node's lock, must treat the slice as read-only, and must not
// retain it across any table mutation. This is the allocation-free read path
// for per-hop routing decisions, where Set's defensive copy dominated the
// routing cost.
func (t *Table) SetView(level int, digit ids.Digit) []Entry {
	s := t.slot(level, digit)
	return t.ents[t.off[s]:t.off[s+1]]
}

// RangeView returns the storage of every neighbor set of levels [lo, hi) as
// one contiguous slice: slot-grouped, ascending (level, digit), each set
// sorted by (distance, id). Whole-band folds (the §4.2 search engine seeding
// from a peer's table, audits) copy or scan this in a single pass instead of
// base×levels SetView calls. Same aliasing contract as SetView.
func (t *Table) RangeView(lo, hi int) []Entry {
	return t.ents[t.off[lo*t.spec.Base]:t.off[hi*t.spec.Base]]
}

// NextHop makes the Tapestry-native surrogate routing decision of Section
// 2.3 for key with `level` digits already resolved. At each remaining level
// it scans the slots in surrogate order — the key's own digit first, then
// wrapping upward — and takes the first entry the skip filter lets through
// (primary before secondaries, so a filtered primary fails over to its
// backups). The owner's own entry resolves the digit by staying put, and the
// scan moves one level up; any other entry is the next hop, reached with
// nextLevel digits resolved. Running out of levels, or of unfiltered entries
// in a row, makes the owner the terminal: the key's root, or its best
// surviving surrogate.
//
// skip hides entries from the decision (an excluded node, peers observed
// dead, peers outside a region); nil hides nothing and reads every slot in
// place. Same locking contract as SetView.
//
// A row's population is read off the CSR offsets before any slot is: an
// unfiltered row of one entry — the owner's own, at every level past the
// depth of its table, which is where a root's terminal decision spends its
// time — has nothing to order, and an empty row nothing to find.
func (t *Table) NextHop(key ids.ID, level int, skip func(Entry) bool) (next Entry, nextLevel int, terminal bool) {
	base := t.spec.Base
	for l := level; l < t.spec.Digits; l++ {
		row := l * base
		first, end := int(t.off[row]), int(t.off[row+base])
		switch {
		case first == end:
			return Entry{}, 0, true
		case end-first == 1 && skip == nil:
			next = t.ents[first]
		default:
			found := false
			s := row + int(key.Digit(l))
		scan:
			for i := 0; i < base; i++ {
				for _, e := range t.ents[t.off[s]:t.off[s+1]] {
					if skip == nil || !skip(e) {
						next, found = e, true
						break scan
					}
				}
				if s++; s == row+base {
					s = row // surrogate order wraps past the highest digit
				}
			}
			if !found {
				return Entry{}, 0, true
			}
		}
		if !next.ID.Equal(t.owner) {
			return next, l + 1, false
		}
	}
	return Entry{}, 0, true
}

// Primary returns the closest non-leaving neighbor at (level, digit). If all
// entries are marked leaving it falls back to the closest entry, so routing
// keeps working during a graceful departure window ("incoming queries still
// route normally to A while it is marked leaving").
func (t *Table) Primary(level int, digit ids.Digit) (Entry, bool) {
	set := t.SetView(level, digit)
	for _, e := range set {
		if !e.Leaving {
			return e, true
		}
	}
	if len(set) > 0 {
		return set[0], true
	}
	return Entry{}, false
}

// HasHole reports whether N_{β,j} is empty — a "hole" in the paper's
// vocabulary (Property 1 demands a hole only exists when no (β, j) node
// exists anywhere).
func (t *Table) HasHole(level int, digit ids.Digit) bool {
	s := t.slot(level, digit)
	return t.off[s] == t.off[s+1]
}

// Contains reports whether id is a forward neighbor at the given level.
func (t *Table) Contains(level int, id ids.ID) bool {
	for _, e := range t.SetView(level, id.Digit(level)) {
		if e.ID.Equal(id) {
			return true
		}
	}
	return false
}

// WouldImprove reports whether adding (id, distance) at level would either
// fill a hole or displace a strictly farther unpinned member of a full set;
// i.e. whether the candidate belongs in the table under Property 2.
func (t *Table) WouldImprove(level int, id ids.ID, distance float64) bool {
	if !t.qualifies(level, id) || t.Contains(level, id) {
		return false
	}
	s := t.slot(level, id.Digit(level))
	if t.off[s] == t.off[s+1] {
		return true
	}
	unpinned := 0
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if !t.ents[i].Pinned {
			unpinned++
		}
	}
	if unpinned < t.r {
		return true
	}
	return distance < t.ents[t.lastUnpinnedIdx(s)].Distance
}

// MarkLeaving flags id wherever it appears (Section 5.1 first-phase delete
// notification). It reports whether any link was found. Sort order is
// unaffected: entries rank by (distance, id) only.
func (t *Table) MarkLeaving(id ids.ID) bool {
	found := false
	for i := range t.ents {
		if t.ents[i].ID.Equal(id) {
			t.ents[i].Leaving = true
			found = true
		}
	}
	return found
}

// Pin marks the identified entry at level as a pinned pointer; Unpin clears
// the mark and re-applies the capacity bound (evicting overflow, returned to
// the caller for backpointer cleanup).
func (t *Table) Pin(level int, id ids.ID) bool {
	s := t.slot(level, id.Digit(level))
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if t.ents[i].ID.Equal(id) {
			if !t.ents[i].Pinned {
				t.pinned++
			}
			t.ents[i].Pinned = true
			return true
		}
	}
	return false
}

// Unpin clears a pinned pointer and enforces R, returning evicted entries.
func (t *Table) Unpin(level int, id ids.ID) (evicted []Entry) {
	s := t.slot(level, id.Digit(level))
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if t.ents[i].ID.Equal(id) {
			if t.ents[i].Pinned {
				t.pinned--
			}
			t.ents[i].Pinned = false
		}
	}
	unpinned := 0
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if !t.ents[i].Pinned {
			unpinned++
		}
	}
	for unpinned > t.r {
		last := t.lastUnpinnedIdx(s)
		evicted = append(evicted, t.ents[last])
		t.removeIdx(s, last)
		unpinned--
	}
	return evicted
}

// PinnedAt returns the pinned entries of N_{β,j}.
func (t *Table) PinnedAt(level int, digit ids.Digit) []Entry {
	var out []Entry
	for _, e := range t.SetView(level, digit) {
		if e.Pinned {
			out = append(out, e)
		}
	}
	return out
}

// OnlyNodeWithPrefix reports whether, as far as this table knows, the owner
// is the only node whose ID starts with p (which must be a prefix of the
// owner). Because every entry at level l >= p.Len() shares the owner's
// first l digits, scanning those rows for any non-self entry is a complete
// local test whenever R >= 2 (the owner occupies at most one slot per set).
// With the contiguous layout those rows are one tail range of the block.
func (t *Table) OnlyNodeWithPrefix(p ids.Prefix) bool {
	if !t.owner.HasPrefix(p) {
		panic(fmt.Sprintf("route: prefix %v is not a prefix of owner %v", p, t.owner))
	}
	for _, e := range t.RangeView(p.Len(), t.spec.Digits) {
		if !e.ID.Equal(t.owner) {
			return false
		}
	}
	return true
}

// ForEachNeighbor invokes fn once per distinct (level, entry) forward link,
// excluding the owner's self entries, in ascending (level, digit, rank)
// order.
func (t *Table) ForEachNeighbor(fn func(level int, e Entry)) {
	s := 0
	for i, e := range t.ents {
		for int(t.off[s+1]) <= i {
			s++
		}
		if !e.ID.Equal(t.owner) {
			fn(s/t.spec.Base, e)
		}
	}
}

// NeighborCount returns the number of forward links excluding self entries
// (the "space" measurement of Table 1).
func (t *Table) NeighborCount() int {
	n := 0
	for i := range t.ents {
		if !t.ents[i].ID.Equal(t.owner) {
			n++
		}
	}
	return n
}

// DistinctNeighbors returns each distinct neighbor (excluding self) once,
// at its smallest level of appearance.
func (t *Table) DistinctNeighbors() []Entry {
	seen := map[ids.ID]struct{}{}
	out := []Entry{}
	t.ForEachNeighbor(func(_ int, e Entry) {
		if _, ok := seen[e.ID]; !ok {
			seen[e.ID] = struct{}{}
			out = append(out, e)
		}
	})
	sortEntries(out)
	return out
}

// backIdx returns the position of id in back[level] — or where it would be
// inserted to keep the list in ascending ID order — and whether it is present.
func (t *Table) backIdx(level int, id ids.ID) (int, bool) {
	b := t.back[level]
	i := sort.Search(len(b), func(i int) bool { return !b[i].ID.Less(id) })
	return i, i < len(b) && b[i].ID.Equal(id)
}

// AddBack records that `e` holds the owner in its level-`level` neighbor
// sets; a holder already recorded is overwritten (its distance may have
// changed).
func (t *Table) AddBack(level int, e Entry) {
	i, found := t.backIdx(level, e.ID)
	if found {
		t.back[level][i] = e
		return
	}
	b := append(t.back[level], Entry{})
	copy(b[i+1:], b[i:])
	b[i] = e
	t.back[level] = b
}

// RemoveBack removes a backpointer.
func (t *Table) RemoveBack(level int, id ids.ID) {
	if i, found := t.backIdx(level, id); found {
		b := t.back[level]
		t.back[level] = append(b[:i], b[i+1:]...)
	}
}

// BackCount returns the number of backpointers at a level.
func (t *Table) BackCount(level int) int { return len(t.back[level]) }

// Backs returns a copy of the backpointers at a level in (distance, id)
// order — closest holder first, the order Leave notifies in.
func (t *Table) Backs(level int) []Entry {
	out := make([]Entry, len(t.back[level]))
	copy(out, t.back[level])
	sortEntries(out)
	return out
}

// AppendBacks appends the level's backpointers to dst in ascending ID order
// — the stored order, and the deterministic iteration the maintenance and
// search paths use — and returns the extended slice.
func (t *Table) AppendBacks(dst []Entry, level int) []Entry {
	return append(dst, t.back[level]...)
}
