package route

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

var spec = ids.Spec{Base: 4, Digits: 4}

// TestEntryIsFortyPointerFreeBytes pins what every routing table, search pool
// and list payload is made of: an entry is five words, and none of them is a
// pointer — the identifier is its digits, not a reference to them — so the
// collector never scans a table and a copied entry shares nothing.
func TestEntryIsFortyPointerFreeBytes(t *testing.T) {
	typ := reflect.TypeOf(Entry{})
	if typ.Size() != 40 {
		t.Errorf("route.Entry is %d bytes, want 40", typ.Size())
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %v: an entry must hold no pointer", path, typ.Kind())
		}
	}
	walk("Entry", typ)
}

func id(t *testing.T, s string) ids.ID {
	t.Helper()
	v, err := spec.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func newTable(t *testing.T) *Table {
	return New(spec, mustParse("0123"), 0, 2)
}

func mustParse(s string) ids.ID {
	v, err := spec.Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestNewSelfEntries(t *testing.T) {
	tb := newTable(t)
	// Owner 0123 must occupy (0,'0'), (1,'1'), (2,'2'), (3,'3').
	for l := 0; l < 4; l++ {
		e, ok := tb.Primary(l, tb.Owner().Digit(l))
		if !ok || !e.ID.Equal(tb.Owner()) || e.Distance != 0 {
			t.Fatalf("level %d: self entry missing", l)
		}
	}
	if tb.NeighborCount() != 0 {
		t.Error("fresh table should have no non-self neighbors")
	}
	if tb.Levels() != 4 || tb.Base() != 4 || tb.R() != 2 || tb.Addr() != 0 {
		t.Error("accessors")
	}
}

func TestNewPanicsOnBadR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(spec, mustParse("0123"), 0, 0)
}

func TestAddOrderingAndEviction(t *testing.T) {
	tb := newTable(t)
	// All share prefix "0" so they qualify at level 1; digit at level 1 is '3'.
	a := Entry{ID: id(t, "0300"), Addr: 1, Distance: 5}
	b := Entry{ID: id(t, "0311"), Addr: 2, Distance: 2}
	c := Entry{ID: id(t, "0322"), Addr: 3, Distance: 9}

	if ok, _ := tb.Add(1, a); !ok {
		t.Fatal("add a")
	}
	if ok, _ := tb.Add(1, b); !ok {
		t.Fatal("add b")
	}
	set := tb.Set(1, 3)
	if len(set) != 2 || !set[0].ID.Equal(b.ID) {
		t.Fatalf("primary should be closest, got %v", set)
	}
	// c is farther than both with R=2: rejected, nothing evicted.
	ok, evicted := tb.Add(1, c)
	if ok || len(evicted) != 0 {
		t.Fatalf("far entry must not displace closer ones: ok=%v evicted=%v", ok, evicted)
	}
	// A closer entry evicts the farthest.
	d := Entry{ID: id(t, "0333"), Addr: 4, Distance: 1}
	ok, evicted = tb.Add(1, d)
	if !ok || len(evicted) != 1 || !evicted[0].ID.Equal(a.ID) {
		t.Fatalf("eviction: ok=%v evicted=%v", ok, evicted)
	}
	set = tb.Set(1, 3)
	if len(set) != 2 || !set[0].ID.Equal(d.ID) || !set[1].ID.Equal(b.ID) {
		t.Fatalf("set after eviction: %v", set)
	}
}

func TestAddRejectsWrongPrefix(t *testing.T) {
	tb := newTable(t)
	// 1xxx does not share the owner's level-1 prefix "0".
	if ok, _ := tb.Add(1, Entry{ID: id(t, "1300"), Distance: 1}); ok {
		t.Error("must reject entries that do not share the level prefix")
	}
	// But it qualifies at level 0.
	if ok, _ := tb.Add(0, Entry{ID: id(t, "1300"), Distance: 1}); !ok {
		t.Error("level-0 add should succeed")
	}
}

func TestAddUpdateInPlace(t *testing.T) {
	tb := newTable(t)
	e := Entry{ID: id(t, "0300"), Addr: 1, Distance: 5}
	tb.Add(1, e)
	e.Distance = 1
	ok, evicted := tb.Add(1, e)
	if !ok || evicted != nil {
		t.Fatal("update in place")
	}
	set := tb.Set(1, 3)
	if len(set) != 1 || set[0].Distance != 1 {
		t.Fatalf("distance not updated: %v", set)
	}
}

func TestRemove(t *testing.T) {
	tb := newTable(t)
	e := Entry{ID: id(t, "0300"), Addr: 1, Distance: 5}
	tb.Add(0, Entry{ID: id(t, "0300"), Addr: 1, Distance: 5})
	tb.Add(1, e)
	levels := tb.Remove(e.ID)
	if len(levels) != 2 {
		t.Fatalf("expected removal at 2 levels, got %v", levels)
	}
	if tb.Contains(1, e.ID) || tb.Contains(0, e.ID) {
		t.Error("entry still present")
	}
	if got := tb.Remove(e.ID); got != nil {
		t.Error("double remove should be a no-op")
	}
}

func TestHasHoleAndWouldImprove(t *testing.T) {
	tb := newTable(t)
	if !tb.HasHole(1, 2) {
		t.Error("empty set is a hole")
	}
	if tb.HasHole(1, 1) {
		t.Error("self slot is not a hole")
	}
	cand := id(t, "0200")
	if !tb.WouldImprove(1, cand, 100) {
		t.Error("any candidate improves a hole")
	}
	tb.Add(1, Entry{ID: cand, Distance: 3})
	if tb.WouldImprove(1, cand, 3) {
		t.Error("already-present entry does not improve")
	}
	other := id(t, "0211")
	if !tb.WouldImprove(1, other, 50) {
		t.Error("set below R always improves")
	}
	tb.Add(1, Entry{ID: other, Distance: 5})
	third := id(t, "0222")
	if tb.WouldImprove(1, third, 6) {
		t.Error("farther than all of a full set: no improvement")
	}
	if !tb.WouldImprove(1, third, 4) {
		t.Error("closer than the worst of a full set: improvement")
	}
	if tb.WouldImprove(1, id(t, "1222"), 0.1) {
		t.Error("wrong prefix cannot improve")
	}
}

func TestPrimarySkipsLeaving(t *testing.T) {
	tb := newTable(t)
	a := Entry{ID: id(t, "0300"), Distance: 1}
	b := Entry{ID: id(t, "0311"), Distance: 2}
	tb.Add(1, a)
	tb.Add(1, b)
	if !tb.MarkLeaving(a.ID) {
		t.Fatal("mark leaving")
	}
	p, ok := tb.Primary(1, 3)
	if !ok || !p.ID.Equal(b.ID) {
		t.Fatalf("primary should skip leaving node, got %v", p)
	}
	// If everyone is leaving we still route to someone.
	tb.MarkLeaving(b.ID)
	if _, ok := tb.Primary(1, 3); !ok {
		t.Error("must fall back to a leaving node rather than fail")
	}
	if tb.MarkLeaving(id(t, "3333")) {
		t.Error("marking an absent node should report false")
	}
}

func TestPinnedSurviveCapacity(t *testing.T) {
	tb := newTable(t)
	p := Entry{ID: id(t, "0300"), Distance: 50, Pinned: true}
	tb.Add(1, p)
	// Fill with two closer unpinned entries (R=2).
	tb.Add(1, Entry{ID: id(t, "0311"), Distance: 1})
	tb.Add(1, Entry{ID: id(t, "0322"), Distance: 2})
	set := tb.Set(1, 3)
	if len(set) != 3 {
		t.Fatalf("pinned entry must not count against R: %v", set)
	}
	pinned := tb.PinnedAt(1, 3)
	if len(pinned) != 1 || !pinned[0].ID.Equal(p.ID) {
		t.Fatalf("PinnedAt: %v", pinned)
	}
	// Unpinning re-applies the bound: the now-farthest unpinned entry goes.
	evicted := tb.Unpin(1, p.ID)
	if len(evicted) != 1 || !evicted[0].ID.Equal(p.ID) {
		t.Fatalf("unpin eviction: %v", evicted)
	}
	if len(tb.PinnedAt(1, 3)) != 0 {
		t.Error("still pinned")
	}
}

func TestPinExisting(t *testing.T) {
	tb := newTable(t)
	e := Entry{ID: id(t, "0300"), Distance: 3}
	tb.Add(1, e)
	if !tb.Pin(1, e.ID) {
		t.Fatal("pin existing")
	}
	if tb.Pin(1, id(t, "0311")) {
		t.Error("pin of absent entry must fail")
	}
	if len(tb.PinnedAt(1, 3)) != 1 {
		t.Error("pin did not stick")
	}
}

func TestOnlyNodeWithPrefix(t *testing.T) {
	tb := newTable(t)
	if !tb.OnlyNodeWithPrefix(ids.EmptyPrefix) {
		t.Error("fresh table: owner is the only known node")
	}
	tb.Add(2, Entry{ID: id(t, "0100"), Distance: 4})
	if tb.OnlyNodeWithPrefix(tb.Owner().Prefix(1)) {
		t.Error("a level-2 neighbor shares prefix 0*")
	}
	if !tb.OnlyNodeWithPrefix(tb.Owner().Prefix(3)) {
		t.Error("no known node shares 3 digits")
	}
	defer func() {
		if recover() == nil {
			t.Error("foreign prefix must panic")
		}
	}()
	tb.OnlyNodeWithPrefix(id(t, "3333").Prefix(2))
}

func TestBackpointers(t *testing.T) {
	tb := newTable(t)
	a := Entry{ID: id(t, "0300"), Addr: 7, Distance: 2}
	tb.AddBack(1, a)
	tb.AddBack(1, Entry{ID: id(t, "0311"), Addr: 8, Distance: 1})
	backs := tb.Backs(1)
	if len(backs) != 2 || backs[0].Distance != 1 {
		t.Fatalf("backs: %v", backs)
	}
	if tb.BackCount(1) != 2 || tb.BackCount(0) != 0 || tb.BackCount(2) != 0 {
		t.Fatalf("BackCount: level 0/1/2 = %d/%d/%d, want 0/2/0", tb.BackCount(0), tb.BackCount(1), tb.BackCount(2))
	}
	tb.RemoveBack(1, a.ID)
	if len(tb.Backs(1)) != 1 {
		t.Error("remove back")
	}
	// Remove() also clears backpointers.
	tb.AddBack(2, a)
	tb.Remove(a.ID)
	if len(tb.Backs(2)) != 0 {
		t.Error("Remove must clear backpointers")
	}
}

func TestForEachAndDistinct(t *testing.T) {
	tb := newTable(t)
	tb.Add(0, Entry{ID: id(t, "2000"), Distance: 3})
	tb.Add(0, Entry{ID: id(t, "0300"), Distance: 2})
	tb.Add(1, Entry{ID: id(t, "0300"), Distance: 2})
	if tb.NeighborCount() != 3 {
		t.Errorf("NeighborCount = %d, want 3 (per-level links)", tb.NeighborCount())
	}
	distinct := tb.DistinctNeighbors()
	if len(distinct) != 2 {
		t.Errorf("DistinctNeighbors = %v", distinct)
	}
}

// Property: after any sequence of adds, each set is sorted by distance, has
// at most R unpinned entries, and the primary is the closest member.
func TestQuickSetInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(spec, spec.Random(rng), netsim.Addr(0), 1+rng.Intn(3))
		for i := 0; i < int(n); i++ {
			cand := spec.Random(rng)
			lvl := rng.Intn(spec.Digits)
			tb.Add(lvl, Entry{ID: cand, Addr: netsim.Addr(i), Distance: float64(rng.Intn(100))})
		}
		for l := 0; l < tb.Levels(); l++ {
			for d := 0; d < tb.Base(); d++ {
				set := tb.Set(l, ids.Digit(d))
				unpinned := 0
				for i, e := range set {
					if i > 0 && set[i-1].Distance > e.Distance {
						return false
					}
					if !e.ID.HasPrefix(tb.Owner().Prefix(l)) {
						return false
					}
					if e.ID.Digit(l) != ids.Digit(d) {
						return false
					}
					if !e.Pinned {
						unpinned++
					}
				}
				if unpinned > tb.R() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPinnedCount(t *testing.T) {
	tb := newTable(t)
	if tb.PinnedCount() != 0 {
		t.Fatalf("fresh table pinned count %d", tb.PinnedCount())
	}
	a, b := id(t, "1000"), id(t, "2000")
	// New pinned entry counts once.
	tb.Add(0, Entry{ID: a, Addr: 1, Distance: 5, Pinned: true})
	if tb.PinnedCount() != 1 {
		t.Fatalf("after pinned add: %d", tb.PinnedCount())
	}
	// Update-in-place of a pinned entry must not double-count.
	tb.Add(0, Entry{ID: a, Addr: 1, Distance: 4, Pinned: true})
	tb.Add(0, Entry{ID: a, Addr: 1, Distance: 3}) // unpinned update keeps the pin
	if tb.PinnedCount() != 1 {
		t.Fatalf("after updates: %d", tb.PinnedCount())
	}
	// Pin() on an existing unpinned entry counts; repeated Pin does not.
	tb.Add(0, Entry{ID: b, Addr: 2, Distance: 7})
	tb.Pin(0, b)
	tb.Pin(0, b)
	if tb.PinnedCount() != 2 {
		t.Fatalf("after Pin: %d", tb.PinnedCount())
	}
	// Unpin decrements once per flip.
	tb.Unpin(0, b)
	tb.Unpin(0, b)
	if tb.PinnedCount() != 1 {
		t.Fatalf("after Unpin: %d", tb.PinnedCount())
	}
	// Remove of a pinned entry decrements.
	tb.Remove(a)
	if tb.PinnedCount() != 0 {
		t.Fatalf("after Remove: %d", tb.PinnedCount())
	}
}

// TestSetViewAliasesStorage: SetView returns the same contents as Set,
// primary-first, without copying — mutations through Add are visible in a
// freshly taken view, and Set's copy is unaffected by later table changes.
func TestSetViewAliasesStorage(t *testing.T) {
	tb := newTable(t) // owner 0123, R=2
	tb.Add(2, Entry{ID: id(t, "0130"), Addr: 5, Distance: 3})
	view := tb.SetView(2, 3)
	cp := tb.Set(2, 3)
	if len(view) != len(cp) {
		t.Fatalf("view has %d entries, copy has %d", len(view), len(cp))
	}
	for i := range view {
		if !view[i].ID.Equal(cp[i].ID) {
			t.Fatalf("view[%d]=%v, copy[%d]=%v", i, view[i].ID, i, cp[i].ID)
		}
	}
	// A closer entry becomes the new primary; a fresh view sees it, the old
	// copy does not.
	tb.Add(2, Entry{ID: id(t, "0131"), Addr: 6, Distance: 1})
	if got := tb.SetView(2, 3); len(got) != len(cp)+1 || !got[0].ID.Equal(id(t, "0131")) {
		t.Fatalf("fresh view missed the new primary: %v", got)
	}
	if len(cp) != 1 || !cp[0].ID.Equal(id(t, "0130")) {
		t.Fatalf("Set copy mutated by a later Add: %v", cp)
	}
}

// The benchmarks below quantify the no-copy read path the per-hop routing
// decision (NextHop) reads slots through: Set allocates and copies the slot
// on every probe, SetView reads in place.
func benchTableFull(b *testing.B) *Table {
	tb := New(spec, mustParse("0123"), 0, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		e := Entry{ID: spec.Random(rng), Addr: netsim.Addr(i + 1), Distance: float64(rng.Intn(64))}
		for l := 0; l <= ids.CommonPrefixLen(tb.Owner(), e.ID) && l < spec.Digits; l++ {
			tb.Add(l, e)
		}
	}
	return tb
}

func BenchmarkSetCopy(b *testing.B) {
	tb := benchTableFull(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for d := 0; d < spec.Base; d++ {
			_ = tb.Set(0, ids.Digit(d))
		}
	}
}

func BenchmarkSetView(b *testing.B) {
	tb := benchTableFull(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for d := 0; d < spec.Base; d++ {
			_ = tb.SetView(0, ids.Digit(d))
		}
	}
}
