package route

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// legacyTable is the pre-SoA slice-of-slices layout, kept here verbatim as a
// differential oracle: the contiguous-block Table must be observationally
// identical to it under any op stream.
type legacyTable struct {
	spec   ids.Spec
	owner  ids.ID
	r      int
	sets   [][][]Entry
	pinned int
}

func newLegacy(spec ids.Spec, owner ids.ID, addr netsim.Addr, r int) *legacyTable {
	t := &legacyTable{spec: spec, owner: owner, r: r, sets: make([][][]Entry, spec.Digits)}
	for l := 0; l < spec.Digits; l++ {
		t.sets[l] = make([][]Entry, spec.Base)
	}
	self := Entry{ID: owner, Addr: addr, Distance: 0}
	for l := 0; l < spec.Digits; l++ {
		t.sets[l][owner.Digit(l)] = []Entry{self}
	}
	return t
}

func legacyRemoveAt(set []Entry, i int) []Entry { return append(set[:i:i], set[i+1:]...) }

func legacyLastUnpinned(set []Entry) int {
	for i := len(set) - 1; i >= 0; i-- {
		if !set[i].Pinned {
			return i
		}
	}
	return -1
}

func (t *legacyTable) qualifies(level int, id ids.ID) bool {
	return level < t.spec.Digits && ids.CommonPrefixLen(t.owner, id) >= level
}

func (t *legacyTable) add(level int, e Entry) (bool, []Entry) {
	if !t.qualifies(level, e.ID) {
		return false, nil
	}
	digit := e.ID.Digit(level)
	set := t.sets[level][digit]
	for i := range set {
		if set[i].ID.Equal(e.ID) {
			pinned := set[i].Pinned || e.Pinned
			if pinned && !set[i].Pinned {
				t.pinned++
			}
			set[i] = e
			set[i].Pinned = pinned
			sortEntries(set)
			t.sets[level][digit] = set
			return true, nil
		}
	}
	if e.Pinned {
		t.pinned++
	}
	set = append(set, e)
	sortEntries(set)
	unpinned := 0
	for _, x := range set {
		if !x.Pinned {
			unpinned++
		}
	}
	if unpinned > t.r && !e.Pinned {
		last := legacyLastUnpinned(set)
		if set[last].ID.Equal(e.ID) {
			t.sets[level][digit] = legacyRemoveAt(set, last)
			return false, nil
		}
	}
	var evicted []Entry
	for unpinned > t.r {
		last := legacyLastUnpinned(set)
		evicted = append(evicted, set[last])
		set = legacyRemoveAt(set, last)
		unpinned--
	}
	t.sets[level][digit] = set
	return true, evicted
}

func (t *legacyTable) remove(id ids.ID) (levels []int) {
	for l := 0; l < t.spec.Digits; l++ {
		found := false
		for d := range t.sets[l] {
			for i := range t.sets[l][d] {
				if t.sets[l][d][i].ID.Equal(id) {
					if t.sets[l][d][i].Pinned {
						t.pinned--
					}
					t.sets[l][d] = legacyRemoveAt(t.sets[l][d], i)
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			levels = append(levels, l)
		}
	}
	return levels
}

func (t *legacyTable) pin(level int, id ids.ID) bool {
	digit := id.Digit(level)
	for i := range t.sets[level][digit] {
		if t.sets[level][digit][i].ID.Equal(id) {
			if !t.sets[level][digit][i].Pinned {
				t.pinned++
			}
			t.sets[level][digit][i].Pinned = true
			return true
		}
	}
	return false
}

func (t *legacyTable) unpin(level int, id ids.ID) (evicted []Entry) {
	digit := id.Digit(level)
	set := t.sets[level][digit]
	for i := range set {
		if set[i].ID.Equal(id) {
			if set[i].Pinned {
				t.pinned--
			}
			set[i].Pinned = false
		}
	}
	unpinned := 0
	for _, x := range set {
		if !x.Pinned {
			unpinned++
		}
	}
	for unpinned > t.r {
		last := legacyLastUnpinned(set)
		evicted = append(evicted, set[last])
		set = legacyRemoveAt(set, last)
		unpinned--
	}
	t.sets[level][digit] = set
	return evicted
}

func (t *legacyTable) markLeaving(id ids.ID) bool {
	found := false
	for l := 0; l < t.spec.Digits; l++ {
		for d := range t.sets[l] {
			for i := range t.sets[l][d] {
				if t.sets[l][d][i].ID.Equal(id) {
					t.sets[l][d][i].Leaving = true
					found = true
				}
			}
			sortEntries(t.sets[l][d])
		}
	}
	return found
}

// render serializes every slot byte-for-byte comparably.
func renderEntries(w *strings.Builder, set []Entry) {
	for _, e := range set {
		fmt.Fprintf(w, "{%v a%d d%.6f p%v l%v}", e.ID, e.Addr, e.Distance, e.Pinned, e.Leaving)
	}
}

func (t *legacyTable) render() string {
	var w strings.Builder
	for l := 0; l < t.spec.Digits; l++ {
		for d := 0; d < t.spec.Base; d++ {
			fmt.Fprintf(&w, "[%d,%d]", l, d)
			renderEntries(&w, t.sets[l][d])
			w.WriteByte('\n')
		}
	}
	fmt.Fprintf(&w, "pinned=%d\n", t.pinned)
	return w.String()
}

func renderTable(t *Table) string {
	var w strings.Builder
	for l := 0; l < t.Levels(); l++ {
		for d := 0; d < t.Base(); d++ {
			fmt.Fprintf(&w, "[%d,%d]", l, d)
			renderEntries(&w, t.SetView(l, ids.Digit(d)))
			w.WriteByte('\n')
		}
	}
	fmt.Fprintf(&w, "pinned=%d\n", t.PinnedCount())
	return w.String()
}

func renderSlice(set []Entry) string {
	var w strings.Builder
	renderEntries(&w, set)
	return w.String()
}

// nextHopOracle is the minimal primary-pick routing decision both layouts
// must agree on: the first non-leaving (else first) entry of the slot.
func primaryOf(set []Entry) (Entry, bool) {
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

// TestDifferentialAgainstLegacyLayout drives the old [][][]Entry oracle and
// the contiguous SoA table through an identical seeded op stream and demands
// byte-identical contents and identical return values after every op.
func TestDifferentialAgainstLegacyLayout(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := spec.Random(rng)
		tbl := New(spec, owner, 7, 2)
		ora := newLegacy(spec, owner, 7, 2)

		// A fixed universe of candidate IDs keeps Remove/Pin hitting entries
		// that actually exist often enough to exercise every path.
		universe := make([]ids.ID, 48)
		for i := range universe {
			// Bias toward sharing a prefix with the owner so deep levels fill.
			v := spec.Random(rng)
			if cut := rng.Intn(spec.Digits + 1); cut > 0 {
				digs := make([]ids.Digit, spec.Digits)
				for j := 0; j < spec.Digits; j++ {
					if j < cut {
						digs[j] = owner.Digit(j)
					} else {
						digs[j] = v.Digit(j)
					}
				}
				v = spec.Make(digs)
			}
			universe[i] = v
		}

		for op := 0; op < 4000; op++ {
			id := universe[rng.Intn(len(universe))]
			level := rng.Intn(spec.Digits)
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // Add
				e := Entry{
					ID:       id,
					Addr:     netsim.Addr(rng.Intn(100)),
					Distance: float64(rng.Intn(50)) / 4,
					Pinned:   rng.Intn(8) == 0,
				}
				ga, ge := tbl.Add(level, e)
				wa, we := ora.add(level, e)
				if ga != wa || renderSlice(ge) != renderSlice(we) {
					t.Fatalf("seed %d op %d: Add mismatch: got (%v,%s) want (%v,%s)",
						seed, op, ga, renderSlice(ge), wa, renderSlice(we))
				}
			case 5: // Remove
				gl := tbl.Remove(id)
				wl := ora.remove(id)
				if fmt.Sprint(gl) != fmt.Sprint(wl) {
					t.Fatalf("seed %d op %d: Remove levels: got %v want %v", seed, op, gl, wl)
				}
			case 6: // Pin
				if tbl.Pin(level, id) != ora.pin(level, id) {
					t.Fatalf("seed %d op %d: Pin mismatch", seed, op)
				}
			case 7: // Unpin
				ge := tbl.Unpin(level, id)
				we := ora.unpin(level, id)
				if renderSlice(ge) != renderSlice(we) {
					t.Fatalf("seed %d op %d: Unpin evictions: got %s want %s",
						seed, op, renderSlice(ge), renderSlice(we))
				}
			case 8: // MarkLeaving
				if tbl.MarkLeaving(id) != ora.markLeaving(id) {
					t.Fatalf("seed %d op %d: MarkLeaving mismatch", seed, op)
				}
			case 9: // read-only probes: SetView + primary (nextHop's pick)
				d := ids.Digit(rng.Intn(spec.Base))
				if renderSlice(tbl.SetView(level, d)) != renderSlice(ora.sets[level][d]) {
					t.Fatalf("seed %d op %d: SetView(%d,%d) diverged", seed, op, level, d)
				}
				ge, gok := tbl.Primary(level, d)
				we, wok := primaryOf(ora.sets[level][d])
				if gok != wok || (gok && renderSlice([]Entry{ge}) != renderSlice([]Entry{we})) {
					t.Fatalf("seed %d op %d: Primary(%d,%d) diverged", seed, op, level, d)
				}
			}
			if got, want := renderTable(tbl), ora.render(); got != want {
				t.Fatalf("seed %d op %d: tables diverged:\ngot:\n%s\nwant:\n%s", seed, op, got, want)
			}
		}
	}
}

// TestRangeViewMatchesSetViews pins RangeView's contract: the level band is
// exactly the concatenation of its SetViews in (level, digit) order.
func TestRangeViewMatchesSetViews(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	owner := spec.Random(rng)
	tbl := New(spec, owner, 0, 3)
	for i := 0; i < 200; i++ {
		v := spec.Random(rng)
		tbl.Add(ids.CommonPrefixLen(owner, v), Entry{ID: v, Addr: netsim.Addr(i), Distance: rng.Float64()})
	}
	for lo := 0; lo <= spec.Digits; lo++ {
		for hi := lo; hi <= spec.Digits; hi++ {
			var want []Entry
			for l := lo; l < hi; l++ {
				for d := 0; d < spec.Base; d++ {
					want = append(want, tbl.SetView(l, ids.Digit(d))...)
				}
			}
			if renderSlice(tbl.RangeView(lo, hi)) != renderSlice(want) {
				t.Fatalf("RangeView(%d,%d) != concatenated SetViews", lo, hi)
			}
		}
	}
}

// TestSetViewConcurrentReaders hammers the contiguous block with parallel
// read-only scans (SetView, RangeView, Primary, ForEachNeighbor) under
// -race: the read path must not mutate or lazily materialize anything.
func TestSetViewConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	owner := spec.Random(rng)
	tbl := New(spec, owner, 0, 3)
	for i := 0; i < 100; i++ {
		v := spec.Random(rng)
		tbl.Add(ids.CommonPrefixLen(owner, v), Entry{ID: v, Addr: netsim.Addr(i), Distance: rng.Float64()})
	}
	want := renderTable(tbl)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				if renderTable(tbl) != want {
					t.Error("concurrent read diverged")
					return
				}
				tbl.RangeView(0, tbl.Levels())
				tbl.ForEachNeighbor(func(int, Entry) {})
				tbl.OnlyNodeWithPrefix(owner.Prefix(0))
				for l := 0; l < tbl.Levels(); l++ {
					tbl.Primary(l, owner.Digit(l))
				}
			}
		}()
	}
	wg.Wait()
}

// TestBackpointerModel drives the ID-sorted backpointer lists through seeded
// streams of AddBack, RemoveBack, whole-node Remove and re-AddBack with a new
// distance, against a plain map per level as the reference. After every op:
// AppendBacks extends dst in place with exactly the reference members in
// strictly ascending ID order, Backs returns them in (distance, id) order,
// and BackCount agrees.
func TestBackpointerModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := spec.Random(rng)
		tbl := New(spec, owner, 0, 2)
		ref := make([]map[ids.ID]Entry, spec.Digits)
		for l := range ref {
			ref[l] = map[ids.ID]Entry{}
		}
		// A small universe so removes and distance updates hit present IDs.
		universe := make([]ids.ID, 48)
		for i := range universe {
			universe[i] = spec.Random(rng)
		}
		for op := 0; op < 3000; op++ {
			id := universe[rng.Intn(len(universe))]
			level := rng.Intn(spec.Digits)
			switch r := rng.Intn(10); {
			case r < 6: // add, or re-add with a new distance
				e := Entry{ID: id, Addr: netsim.Addr(rng.Intn(1000)), Distance: float64(rng.Intn(8))}
				tbl.AddBack(level, e)
				ref[level][id] = e
			case r < 9:
				tbl.RemoveBack(level, id)
				delete(ref[level], id)
			default: // Remove drops the node from every level
				tbl.Remove(id)
				for l := range ref {
					delete(ref[l], id)
				}
			}
			for l := range ref {
				if got, want := tbl.BackCount(l), len(ref[l]); got != want {
					t.Fatalf("seed %d op %d level %d: BackCount %d, want %d", seed, op, l, got, want)
				}
				dst := tbl.AppendBacks([]Entry{{ID: owner}}, l)
				if !dst[0].ID.Equal(owner) {
					t.Fatalf("seed %d op %d: AppendBacks clobbered the dst prefix", seed, op)
				}
				tail := dst[1:]
				if len(tail) != len(ref[l]) {
					t.Fatalf("seed %d op %d level %d: AppendBacks gave %d entries, want %d", seed, op, l, len(tail), len(ref[l]))
				}
				for i, e := range tail {
					if i > 0 && !tail[i-1].ID.Less(e.ID) {
						t.Fatalf("seed %d op %d level %d: AppendBacks not strictly ascending by ID at %d", seed, op, l, i)
					}
					if ref[l][e.ID] != e {
						t.Fatalf("seed %d op %d level %d: entry %v differs from reference %v", seed, op, l, e, ref[l][e.ID])
					}
				}
				byDist := tbl.Backs(l)
				if len(byDist) != len(tail) {
					t.Fatalf("seed %d op %d level %d: Backs and AppendBacks disagree on membership", seed, op, l)
				}
				for i := 1; i < len(byDist); i++ {
					if !entryLess(byDist[i-1], byDist[i]) {
						t.Fatalf("seed %d op %d level %d: Backs not in (distance, id) order at %d", seed, op, l, i)
					}
				}
			}
		}
	}
}

// referenceNextHop is Section 2.3's native surrogate decision written the
// plain way — every slot of the row visited in surrogate order through
// SetView, the order computed by modulo — with none of NextHop's shortcuts.
func referenceNextHop(t *Table, key ids.ID, level int, skip func(Entry) bool) (Entry, int, bool) {
	for l := level; l < t.Levels(); l++ {
		var pick *Entry
		for i := 0; i < t.Base() && pick == nil; i++ {
			set := t.SetView(l, ids.Digit((int(key.Digit(l))+i)%t.Base()))
			for j := range set {
				if skip == nil || !skip(set[j]) {
					pick = &set[j]
					break
				}
			}
		}
		if pick == nil {
			return Entry{}, 0, true
		}
		if !pick.ID.Equal(t.Owner()) {
			return *pick, l + 1, false
		}
	}
	return Entry{}, 0, true
}

// TestNextHopMatchesReferenceScan holds NextHop to the reference on random
// tables — from the owner alone, where every row is the one-entry row the CSR
// offsets resolve, to crowded — for random keys at every level under each
// filter shape a walk uses: none, one excluded node, a list of dead ones.
func TestNextHopMatchesReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := []ids.Spec{spec, {Base: 16, Digits: 6}}[(seed/6)%2]
		owner := spec.Random(rng)
		tbl := New(spec, owner, 0, 3)
		// near draws an ID sharing a random-length prefix with the owner, so
		// deep rows fill and keys resolve digits by staying put.
		near := func() ids.ID {
			digs := make([]ids.Digit, spec.Digits)
			v := spec.Random(rng)
			for j, cut := 0, rng.Intn(spec.Digits+1); j < spec.Digits; j++ {
				if digs[j] = v.Digit(j); j < cut {
					digs[j] = owner.Digit(j)
				}
			}
			return spec.Make(digs)
		}
		var members []ids.ID
		for i, n := 0, []int{0, 1, 3, 12, 60, 300}[seed%6]; i < n; i++ {
			e := Entry{ID: near(), Addr: netsim.Addr(i + 1), Distance: float64(rng.Intn(40))}
			for l := 0; l <= ids.CommonPrefixLen(owner, e.ID) && l < spec.Digits; l++ {
				tbl.Add(l, e)
			}
			members = append(members, e.ID)
		}
		if seed%5 == 0 {
			tbl.Remove(owner) // rows with no entry at all
		}
		filters := map[string]func(Entry) bool{"nil": nil}
		if len(members) > 0 {
			excluded := members[rng.Intn(len(members))]
			filters["excluding"] = func(e Entry) bool { return e.ID.Equal(excluded) }
			dead := map[ids.ID]bool{}
			for i := 0; i < 1+len(members)/3; i++ {
				dead[members[rng.Intn(len(members))]] = true
			}
			filters["dead-list"] = func(e Entry) bool { return dead[e.ID] }
		}
		for q := 0; q < 200; q++ {
			key := near()
			for level := 0; level <= spec.Digits; level++ {
				for name, skip := range filters {
					gn, gl, gt := tbl.NextHop(key, level, skip)
					wn, wl, wt := referenceNextHop(tbl, key, level, skip)
					if gn != wn || gl != wl || gt != wt {
						t.Fatalf("seed %d key %v level %d filter %s: NextHop = (%v, %d, %v), reference (%v, %d, %v)",
							seed, key, level, name, gn, gl, gt, wn, wl, wt)
					}
				}
			}
		}
	}
}
