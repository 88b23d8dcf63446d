package main

import (
	"fmt"
	"math/rand"

	"tapestry"
)

// world is the harness's own record of the truth, kept apart from the system
// under test: which addresses host members, which member holds which object.
// It is the correctness oracle — every locate is checked against holder —
// and it is updated on every publish, unpublish, join, leave and fail the
// harness issues. Objects are single-copy (Defaults: r=1, k=1), so an
// object's nearest live holder is its holder.
type world struct {
	sp    spec
	space tapestry.Space
	rng   *rand.Rand // world stream: placement and the churn script

	names  []string // object -> name: statics, then private names, then churn-born
	holder []int32  // object -> address of its live holder, -1 when none
	placed []int32  // static object -> slot that publishes it

	addrOf   []int32 // member slot -> address
	occupied []bool  // point -> hosts a live member

	// Churn bookkeeping: live members and locatable objects as swap-remove
	// sets, so a seeded draw is one index.
	live     []int32
	livePos  []int32   // slot -> index in live, -1 once departed
	held     [][]int32 // slot -> objects it holds
	liveObjs []int32
	objPos   []int32 // object -> index in liveObjs, -1 when not locatable
}

// newWorld lays out names and placement; no network exists yet.
func newWorld(sp spec, seed int64) *world {
	w := &world{sp: sp, space: tapestry.CloudSpace(sp.points, seed), rng: rand.New(rand.NewSource(seed))}
	w.occupied = make([]bool, sp.points)
	for i := 0; i < sp.objects; i++ {
		w.names = append(w.names, fmt.Sprintf("obj-%d", i))
		w.placed = append(w.placed, int32(w.rng.Intn(sp.nodes)))
	}
	for c := 0; c <= maxClients; c++ { // one extra stream for the traced run
		for j := 0; j < privateNames; j++ {
			w.names = append(w.names, fmt.Sprintf("priv-%d-%d", c, j))
		}
	}
	w.holder = make([]int32, len(w.names))
	w.objPos = make([]int32, len(w.names))
	for i := range w.holder {
		w.holder[i], w.objPos[i] = -1, -1
	}
	return w
}

func (w *world) privateObj(client, j int) int32 {
	return int32(w.sp.objects + client*privateNames + j)
}

// admit records a new member at addr and returns its slot.
func (w *world) admit(addr int) int32 {
	slot := int32(len(w.addrOf))
	w.addrOf = append(w.addrOf, int32(addr))
	w.occupied[addr] = true
	w.livePos = append(w.livePos, int32(len(w.live)))
	w.live = append(w.live, slot)
	w.held = append(w.held, nil)
	return slot
}

// depart records that slot left or failed: its objects stop being locatable.
func (w *world) depart(slot int32) {
	w.occupied[w.addrOf[slot]] = false
	removeAt(&w.live, w.livePos, slot)
	for _, obj := range w.held[slot] {
		w.holder[obj] = -1
		removeAt(&w.liveObjs, w.objPos, obj)
	}
	w.held[slot] = nil
}

// removeAt swap-removes id from set, keeping pos (id -> index) in step.
func removeAt(set *[]int32, pos []int32, id int32) {
	s := *set
	i, last := pos[id], s[len(s)-1]
	s[i], pos[last] = last, i
	pos[id] = -1
	*set = s[:len(s)-1]
}

// published records that slot now holds obj; locatable says whether the churn
// probes may draw it.
func (w *world) published(slot, obj int32, locatable bool) {
	w.holder[obj] = w.addrOf[slot]
	if locatable {
		w.held[slot] = append(w.held[slot], obj)
		w.objPos[obj] = int32(len(w.liveObjs))
		w.liveObjs = append(w.liveObjs, obj)
	}
}

func (w *world) unpublished(obj int32) { w.holder[obj] = -1 }

// newObject names an object born during churn.
func (w *world) newObject(name string) int32 {
	w.names = append(w.names, name)
	w.holder = append(w.holder, -1)
	w.objPos = append(w.objPos, -1)
	return int32(len(w.names) - 1)
}

// freePoint draws a point that hosts no live member.
func (w *world) freePoint() int {
	for {
		if a := w.rng.Intn(len(w.occupied)); !w.occupied[a] {
			return a
		}
	}
}

// verify checks one locate against the oracle.
func (w *world) verify(obj int32, r locateResult) bool {
	want := w.holder[obj]
	if want < 0 {
		return !r.found
	}
	return r.found && int32(r.server) == want
}

// populate publishes every static object through d, from its placed slot.
func (w *world) populate(d driver) error {
	for obj, slot := range w.placed {
		if _, err := d.publish(slot, int32(obj)); err != nil {
			return fmt.Errorf("publish %s: %w", w.names[obj], err)
		}
	}
	return nil
}

// recordPlacement enters the static placement into the oracle; it is done
// once per world, however many twin meshes are populated.
func (w *world) recordPlacement(addrs []int) {
	for _, a := range addrs {
		w.admit(a)
	}
	for obj, slot := range w.placed {
		w.published(slot, int32(obj), true)
	}
}
