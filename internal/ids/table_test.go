package ids

import (
	"math/rand"
	"testing"
)

// tailKeys returns n distinct identifiers whose hash has its top ten bits in
// the last eight of 1024: at every table size up to 1024 slots they all start
// their probe in the array's last few slots, so they pile into one run that
// wraps around to slot 0 — the arrangement linear probing and the backward
// shift are most likely to get wrong.
func tailKeys(n int) []ID {
	var t Table[int]
	t.shift = 64 - 10
	var out []ID
	for v := uint64(1); len(out) < n; v++ {
		if id := DefaultSpec.FromUint64(v * 0x9e3779b1); t.home(id) >= 1024-8 {
			out = append(out, id)
		}
	}
	return out
}

// checkTable holds t to want: same size, every key of want found with its
// value, every slot's key in want exactly once, and every key reachable from
// its home slot without crossing an empty one.
func checkTable(tb testing.TB, t *Table[int], want map[ID]int) {
	tb.Helper()
	if t.Len() != len(want) {
		tb.Fatalf("Len = %d, want %d", t.Len(), len(want))
	}
	for id, v := range want {
		if got, ok := t.Get(id); !ok || got != v {
			tb.Fatalf("Get(%v) = %d, %v; want %d", id, got, ok, v)
		}
	}
	seen := 0
	for i := 0; i < t.Slots(); i++ {
		id, v, ok := t.At(i)
		if !ok {
			continue
		}
		seen++
		if w, in := want[id]; !in || w != v {
			tb.Fatalf("slot %d holds %v=%d; want has %d, %v", i, id, v, w, in)
		}
	}
	if seen != len(want) {
		tb.Fatalf("%d occupied slots for %d keys", seen, len(want))
	}
	if t.Slots() > 0 && seen == t.Slots() {
		tb.Fatal("no empty slot left: a probe for an absent key would not end")
	}
}

// runTableOps replays ops — (opcode, key index, value) triples — on a Table
// and on the builtin map, comparing every answer and, every few steps, the
// whole contents.
func runTableOps(tb testing.TB, keys []ID, ops []byte) {
	var t Table[int]
	want := map[ID]int{}
	for step := 0; step+2 < len(ops); step += 3 {
		id, v := keys[int(ops[step+1])%len(keys)], int(ops[step+2])
		switch op := ops[step] % 16; {
		case op < 6:
			t.Put(id, v)
			want[id] = v
		case op < 8:
			_, had := want[id]
			if added := t.Add(id, v); added == had {
				tb.Fatalf("step %d: Add(%v) = %v with the key present: %v", step, id, added, had)
			}
			if !had {
				want[id] = v
			}
		case op < 13:
			t.Delete(id)
			delete(want, id)
		case op == 13 && v < 8:
			t.Clear()
			clear(want)
		default:
			got, ok := t.Get(id)
			if w, in := want[id]; ok != in || got != w {
				tb.Fatalf("step %d: Get(%v) = %d, %v; want %d, %v", step, id, got, ok, w, in)
			}
		}
		if step%48 == 0 {
			checkTable(tb, &t, want)
		}
	}
	checkTable(tb, &t, want)
}

// TestTableAgainstMap is the differential test: long random op sequences over
// a key set that is half tail-colliding and half ordinary, small enough that
// keys are re-put and deleted many times and large enough to grow the table
// several times mid-sequence.
func TestTableAgainstMap(t *testing.T) {
	tail := tailKeys(96)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := append([]ID(nil), tail[:16+rng.Intn(80)]...)
		for i := rng.Intn(120); i > 0; i-- {
			keys = append(keys, DefaultSpec.Random(rng))
		}
		ops := make([]byte, 3*6000)
		rng.Read(ops)
		runTableOps(t, keys, ops)
	}
}

func FuzzTable(f *testing.F) {
	keys := append(tailKeys(48), DefaultSpec.FromUint64(1), DefaultSpec.FromUint64(2), Spec{Base: 64, Digits: MaxDigits}.Hash("x"))
	f.Add([]byte{0, 1, 1, 0, 2, 2, 9, 1, 0, 15, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 9, 0, 0, 9, 3, 0, 13, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, keys, ops) })
}

// TestTableZeroKey: the zero ID marks an empty slot, so it is never found —
// not even in a table whose probe for it starts on an empty slot — and cannot
// be stored.
func TestTableZeroKey(t *testing.T) {
	var tab Table[int]
	if _, ok := tab.Get(ID{}); ok {
		t.Error("empty table holds the zero ID")
	}
	tab.Delete(ID{})
	tab.Put(DefaultSpec.FromUint64(7), 7)
	if v, ok := tab.Get(ID{}); ok || v != 0 {
		t.Errorf("Get(zero ID) = %d, %v", v, ok)
	}
	tab.Delete(ID{})
	if tab.Len() != 1 {
		t.Errorf("Delete(zero ID) changed Len to %d", tab.Len())
	}
	mustPanic(t, "Put(zero ID)", func() { tab.Put(ID{}, 1) })
	mustPanic(t, "Add(zero ID)", func() { tab.Add(ID{}, 1) })
}

// TestTableClearKeepsStorage: a cleared table is empty and refills to its
// old size without allocating — the contract the search and sweep arenas
// recycle on.
func TestTableClearKeepsStorage(t *testing.T) {
	keys := tailKeys(40)
	var tab Table[int]
	fill := func() {
		for i, id := range keys {
			tab.Put(id, i)
		}
	}
	fill()
	slots := tab.Slots()
	if allocs := testing.AllocsPerRun(20, func() { tab.Clear(); fill() }); allocs != 0 {
		t.Errorf("Clear + refill allocates %.1f objects, want 0", allocs)
	}
	tab.Clear()
	if tab.Len() != 0 || tab.Slots() != slots {
		t.Errorf("after Clear: Len %d, Slots %d (was %d)", tab.Len(), tab.Slots(), slots)
	}
	for _, id := range keys {
		if _, ok := tab.Get(id); ok {
			t.Fatalf("cleared table still holds %v", id)
		}
	}
}

// TestTableDeleteWhileIterating is the contract the pointer store's expiry
// leans on: a loop over the slots that deletes the key it was just handed and
// reads that slot again visits every key that survives, and leaves exactly
// the survivors — whichever keys die, wrapped run or not.
func TestTableDeleteWhileIterating(t *testing.T) {
	tail := tailKeys(90)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[int]
		want := map[ID]int{}
		put := func(id ID) {
			v := rng.Intn(3) // 0 = dies in the loop
			tab.Put(id, v)
			want[id] = v
		}
		for _, id := range tail[:rng.Intn(len(tail))] {
			put(id)
		}
		for i := rng.Intn(64); i > 0; i-- {
			put(DefaultSpec.Random(rng))
		}
		visits := map[ID]int{}
		for i := 0; i < tab.Slots(); i++ {
			id, v, ok := tab.At(i)
			if !ok {
				continue
			}
			visits[id]++
			if v == 0 {
				tab.Delete(id)
				delete(want, id)
				i-- // whatever shifted into the gap is read next
			}
		}
		for id, v := range want {
			if visits[id] == 0 {
				t.Fatalf("seed %d: surviving key %v (value %d) was never visited", seed, id, v)
			}
		}
		checkTable(t, &tab, want)
	}
}
