package ids

import "math/bits"

// Table is a hash table keyed by ID whose probe is made of words: the key is
// hashed with one multiply, compared with two word compares, and lives in the
// slot array itself, so a lookup touches no memory but the slots it passes.
// It is open-addressed with linear probing; Delete closes the gap it leaves
// by shifting the run behind it back (no tombstones), and Clear keeps the
// storage. The zero ID marks an empty slot and is therefore not a key: Get and
// Delete report it absent, Put panics.
//
// The zero Table is empty and ready to use. A Table is not safe for
// concurrent use.
type Table[V any] struct {
	slots []tableSlot[V] // nil, or a power-of-two length with at least one slot empty
	n     int
	shift uint8 // 64 - log2(len(slots)): a hash's top bits are its home slot
}

type tableSlot[V any] struct {
	key ID
	val V
}

// tableMinSlots is the first allocation; a table grows by doubling whenever
// an insertion would fill more than three quarters of the slots.
const tableMinSlots = 8

// home returns the slot a key's probe starts at. Fibonacci hashing: the top
// bits of the product depend on every bit of both words.
func (t *Table[V]) home(id ID) int {
	return int((id.hi ^ bits.RotateLeft64(id.lo, 32)) * 0x9e3779b97f4a7c15 >> t.shift)
}

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

// find returns the slot holding id, or the empty slot that ends id's probe
// (where an insertion would put it). The table has slots.
func (t *Table[V]) find(id ID) *tableSlot[V] {
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == id || s.key == (ID{}) {
			return s
		}
	}
}

// Get returns the value stored under id and whether there is one.
func (t *Table[V]) Get(id ID) (v V, ok bool) {
	if t.n == 0 || id == (ID{}) {
		return v, false
	}
	s := t.find(id)
	return s.val, s.key == id
}

// Put stores v under id, replacing any value already there.
func (t *Table[V]) Put(id ID, v V) { t.put(id, v, true) }

// Add stores v under id unless id already has a value, and reports whether it
// stored: the one-probe form of "if _, ok := Get(id); !ok { Put(id, v) }".
func (t *Table[V]) Add(id ID, v V) bool { return t.put(id, v, false) }

// put inserts id, or with replace overwrites its value; it reports whether id
// was absent.
func (t *Table[V]) put(id ID, v V, replace bool) bool {
	if id == (ID{}) {
		panic("ids: the zero ID is not a Table key")
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	s := t.find(id)
	absent := s.key != id
	if absent {
		s.key = id
		t.n++
	}
	if absent || replace {
		s.val = v
	}
	return absent
}

// grow doubles the slot array (or makes the first one) and re-inserts.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), tableMinSlots)
	t.slots = make([]tableSlot[V], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].key != (ID{}) {
			*t.find(old[i].key) = old[i]
		}
	}
}

// Delete removes id, if present.
func (t *Table[V]) Delete(id ID) {
	if t.n == 0 || id == (ID{}) {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].key != id {
		if t.slots[i].key == (ID{}) {
			return
		}
		i = (i + 1) & mask
	}
	t.n--
	// Close the gap: walk the run behind slot i and move back every key whose
	// own probe passes through i, i.e. whose home is not strictly inside
	// (i, j] — it sits at least as far from home as from the gap. The gap
	// moves to where that key was, and the walk goes on until the run ends.
	for j := (i + 1) & mask; t.slots[j].key != (ID{}); j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
}

// Clear removes every key and keeps the storage.
func (t *Table[V]) Clear() {
	if t.n != 0 {
		clear(t.slots)
		t.n = 0
	}
}

// Slots and At iterate the table in slot order, which is arbitrary: At
// reports slot i's key and value, or false for an empty slot.
//
//	for i := 0; i < t.Slots(); i++ {
//		if id, v, ok := t.At(i); ok { ... }
//	}
//
// The loop may Delete the key At(i) just returned, and must then read slot i
// again before moving on — a key shifted back into the gap lands there or
// later, so none is skipped; one that wrapped around from the front of the
// array may be seen a second time. Any other mutation invalidates the loop.
func (t *Table[V]) Slots() int { return len(t.slots) }

// At reads slot i; see Slots.
func (t *Table[V]) At(i int) (ID, V, bool) {
	s := &t.slots[i]
	return s.key, s.val, s.key != ID{}
}
